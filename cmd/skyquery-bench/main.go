// Command skyquery-bench prints every table of internal/experiments: the
// reproductions of the paper's Figures 1-3 and of its quantified claims
// (count-star ordering, chunking, HTM range search, SOAP overhead,
// chain-vs-pull, scaling, performance-query cost).
//
//	skyquery-bench            # run everything
//	skyquery-bench -run C1,C5 # run selected experiments
//
// With -load N the command instead runs a sustained-load drill: it
// launches an in-process federation with admission control enabled and
// holds N concurrent clients streaming query results off the Portal
// over the full SOAP path for -load-duration, reporting throughput,
// latency percentiles, how the admission gates behaved, and the peak
// heap across the whole in-process federation. Each client consumes
// rows through the streaming iterator without materializing results,
// so peak heap is O(pages in flight), not O(result) — pass
// -load-max-heap-mb to turn that bound into a hard failure (CI does).
//
//	skyquery-bench -load 256 -load-duration 10s -load-max-heap-mb 1024
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"skyquery"
	"skyquery/internal/experiments"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	load := flag.Int("load", 0, "run the sustained-load drill with this many concurrent clients instead of experiments")
	loadDuration := flag.Duration("load-duration", 10*time.Second, "how long the -load drill runs")
	loadCodec := flag.String("load-codec", "", "wire codec for the -load drill: binary (default) or xml")
	loadMaxHeapMB := flag.Int("load-max-heap-mb", 0, "fail the -load drill if peak heap exceeds this many MB (0 = report only)")
	flag.Parse()

	if *load > 0 {
		if err := runLoad(*load, *loadDuration, *loadCodec, *loadMaxHeapMB); err != nil {
			log.Fatal(err)
		}
		return
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Println(e.ID)
		}
		return
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			want[id] = true
		}
	}

	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			log.Printf("%s FAILED: %v", e.ID, err)
			failed++
			continue
		}
		fmt.Println(table)
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// runLoad is the sustained-load drill: clients concurrent SOAP clients
// hammer one federated query for d, against nodes whose admission gates
// queue and shed under pressure while the clients ride the sheds out
// with retries. Every client drains its result row by row off the
// streaming iterator, never materializing it, so the whole federation's
// peak heap must stay O(pages in flight). Zero failures is the pass
// condition — every query must either complete or be retried to
// completion — and maxHeapMB > 0 additionally fails the drill when the
// sampled peak heap exceeds the bound.
func runLoad(clients int, d time.Duration, codecName string, maxHeapMB int) error {
	codec, ok := skyquery.ParseCodec(codecName)
	if !ok {
		return fmt.Errorf("bad -load-codec %q, want binary or xml", codecName)
	}
	f, err := skyquery.Launch(skyquery.Options{
		Bodies: 2000,
		Codec:  codec,
		Admission: skyquery.Admission{
			MaxConcurrent: 8,
			MaxQueue:      4 * clients,
			QueueTimeout:  30 * time.Second,
		},
	})
	if err != nil {
		return err
	}
	defer f.Close()

	region := skyquery.NewCap(185, -0.5, 0.25)
	ra, dec := region.Center.RaDec()
	sql := fmt.Sprintf(`SELECT O.object_id, T.object_id
		FROM SDSS:PhotoObject O, TWOMASS:PhotoObject T
		WHERE AREA(%g, %g, %g) AND XMATCH(O, T) < 3.0`,
		ra, dec, skyquery.ToArcsec(region.Radius))

	log.Printf("load drill: %d clients for %s (codec %s)", clients, d, codec)
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failures  int
		rows      int64
	)

	// Sample HeapAlloc over the drill: the streamed consumption below
	// holds it near O(clients x page), never O(clients x result).
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stopSampler := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var m runtime.MemStats
		var peak uint64
		for {
			select {
			case <-stopSampler:
				peakCh <- peak
				return
			default:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.Client()
			for time.Now().Before(deadline) {
				start := time.Now()
				n, err := drainStreamed(c, sql)
				lat := time.Since(start)
				mu.Lock()
				latencies = append(latencies, lat)
				if err != nil {
					failures++
				} else {
					rows += n
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stopSampler)
	peakHeap := <-peakCh

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	completed := len(latencies) - failures
	fmt.Printf("completed: %d queries, %d failures, %d result rows\n", completed, failures, rows)
	fmt.Printf("throughput: %.1f qps\n", float64(completed)/d.Seconds())
	fmt.Printf("latency: p50=%s p90=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond))
	for name, n := range f.Nodes {
		s := n.AdmissionStats()
		fmt.Printf("node %s admission: admitted=%d queued=%d shed=%d\n", name, s.Admitted, s.Queued, s.Shed)
	}
	hits := f.Portal.PlanCacheStats()
	fmt.Printf("portal plan cache: hits=%d misses=%d\n", hits.Hits, hits.Misses)
	fmt.Printf("peak heap: %d MB (baseline %d MB)\n", peakHeap>>20, base.HeapAlloc>>20)
	if failures > 0 {
		return fmt.Errorf("load drill: %d queries failed", failures)
	}
	if maxHeapMB > 0 && peakHeap > uint64(maxHeapMB)<<20 {
		return fmt.Errorf("load drill: peak heap %d MB exceeds the %d MB bound — streamed consumption is buffering somewhere",
			peakHeap>>20, maxHeapMB)
	}
	return nil
}

// drainStreamed consumes one query's result row by row off the
// streaming iterator, returning the row count without ever holding the
// result set.
func drainStreamed(c *skyquery.Client, sql string) (int64, error) {
	rows, err := c.QueryRows(context.Background(), sql)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var n int64
	for rows.Next() {
		n++
	}
	return n, rows.Err()
}
