// Command skyquery-portal runs a SkyQuery Portal: the federation mediator
// serving the Registration and SkyQuery SOAP services (§5.1).
//
// SkyNodes join by calling the Registration service (see skyquery-node's
// -portal flag); clients submit cross-match queries with the skyquery CLI
// or any SOAP client.
//
//	skyquery-portal -addr :8080
//
// With -shard-map the portal seeds its registry from a static shard
// layout file instead of waiting for every node to self-register — the
// operator's hand-written replica sets. Each line is
//
//	archive INDEX:COUNT LEVEL LO-HI endpoint [follower]
//
// ('#' starts a comment). Entries whose node is not yet serving are
// retried until it comes up.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"skyquery/internal/portal"
	"skyquery/internal/soap"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	publicURL := flag.String("url", "", "public URL for the WSDL (defaults to http://<host>:<port>)")
	chunkRows := flag.Int("chunk-rows", 5000, "rows per SOAP message for large results")
	matchCols := flag.Bool("match-columns", false, "append _matchRA/_matchDec/_logLikelihood/_nObs to results")
	parallelism := flag.Int("parallelism", 0, "chain-step worker hint written into plans (0 = node default, 1 = sequential)")
	codec := flag.String("codec", "", "wire codec for node calls and client responses: binary (negotiated, default) or xml")
	planCache := flag.Int("plan-cache", 0, "compiled-plan cache entries per generation (0 = 256 default, negative = disabled)")
	retryOverloaded := flag.Int("retry-overloaded", 4, "retries with doubling backoff when a node sheds a query as overloaded")
	countProbeOrder := flag.Bool("count-probe-order", false, "order chains by the count-star rule alone, ignoring node column statistics")
	shardMap := flag.String("shard-map", "", "file of static shard registrations (archive INDEX:COUNT LEVEL LO-HI endpoint [follower] per line); entries retry until their node is up")
	verbose := flag.Bool("v", false, "log query trace events")
	flag.Parse()

	portalCodec, ok := soap.ParseCodec(*codec)
	if !ok {
		log.Fatalf("bad -codec %q, want binary or xml", *codec)
	}
	cfg := portal.Config{
		ChunkRows:           *chunkRows,
		IncludeMatchColumns: *matchCols,
		Parallelism:         *parallelism,
		PlanCacheSize:       *planCache,
		CountProbeOrder:     *countProbeOrder,
		Codec:               portalCodec,
		Client:              &soap.Client{Codec: portalCodec, MaxRetries: *retryOverloaded},
	}
	if *verbose {
		cfg.OnEvent = func(e portal.Event) { log.Printf("[%s] %s", e.Kind, e.Detail) }
	}
	p := portal.New(cfg)

	url := *publicURL
	if url == "" {
		host := *addr
		if strings.HasPrefix(host, ":") {
			host = "localhost" + host
		}
		url = "http://" + host
	}
	if err := p.SetWSDL(url); err != nil {
		log.Fatal(err)
	}
	// Sharded execution stages inter-shard transfers on the portal's own
	// chunk store; the nodes fetch them back through this URL.
	p.SetSelfURL(url)

	entries, err := loadShardMap(*shardMap)
	if err != nil {
		log.Fatal(err)
	}
	if len(entries) > 0 {
		go registerShardMap(p, *shardMap, entries)
	}

	log.Printf("SkyQuery portal listening on %s (WSDL at %s?wsdl)", *addr, url)
	log.Printf("waiting for SkyNode registrations...")
	if err := http.ListenAndServe(*addr, logRegistrations(p)); err != nil {
		log.Fatal(err)
	}
}

// shardEntry is one parsed -shard-map line.
type shardEntry struct {
	line     int
	archive  string
	endpoint string
	info     portal.ShardInfo
}

// loadShardMap parses the -shard-map file ("" means no map).
func loadShardMap(path string) ([]shardEntry, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []shardEntry
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if cut := strings.IndexByte(line, '#'); cut >= 0 {
			line = strings.TrimSpace(line[:cut])
		}
		if line == "" {
			continue
		}
		e, err := parseShardEntry(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		e.line = i + 1
		entries = append(entries, e)
	}
	return entries, nil
}

// parseShardEntry parses "archive INDEX:COUNT LEVEL LO-HI endpoint
// [follower]".
func parseShardEntry(line string) (shardEntry, error) {
	f := strings.Fields(line)
	if len(f) != 5 && len(f) != 6 {
		return shardEntry{}, fmt.Errorf("want: archive INDEX:COUNT LEVEL LO-HI endpoint [follower], got %d field(s)", len(f))
	}
	e := shardEntry{archive: f[0], endpoint: f[4]}
	idx, cnt, ok := strings.Cut(f[1], ":")
	if !ok {
		return shardEntry{}, fmt.Errorf("bad shard %q, want INDEX:COUNT", f[1])
	}
	var err error
	if e.info.Index, err = strconv.Atoi(idx); err != nil {
		return shardEntry{}, fmt.Errorf("bad shard index %q: %v", idx, err)
	}
	if e.info.Count, err = strconv.Atoi(cnt); err != nil {
		return shardEntry{}, fmt.Errorf("bad shard count %q: %v", cnt, err)
	}
	if e.info.Level, err = strconv.Atoi(f[2]); err != nil {
		return shardEntry{}, fmt.Errorf("bad level %q: %v", f[2], err)
	}
	lo, hi, ok := strings.Cut(f[3], "-")
	if !ok {
		return shardEntry{}, fmt.Errorf("bad range %q, want LO-HI", f[3])
	}
	if e.info.Lo, err = strconv.ParseUint(lo, 10, 64); err != nil {
		return shardEntry{}, fmt.Errorf("bad range low %q: %v", lo, err)
	}
	if e.info.Hi, err = strconv.ParseUint(hi, 10, 64); err != nil {
		return shardEntry{}, fmt.Errorf("bad range high %q: %v", hi, err)
	}
	if len(f) == 6 {
		if f[5] != "follower" {
			return shardEntry{}, fmt.Errorf("bad trailing field %q, want \"follower\"", f[5])
		}
		e.info.Follower = true
	}
	return e, nil
}

// registerShardMap drives every static entry to registration, retrying
// entries whose node is not yet serving (registration probes the node's
// Information and Metadata services).
func registerShardMap(p *portal.Portal, path string, entries []shardEntry) {
	const (
		retryEvery = time.Second
		maxWait    = 2 * time.Minute
	)
	deadline := time.Now().Add(maxWait)
	pending := entries
	for len(pending) > 0 {
		var failed []shardEntry
		for _, e := range pending {
			if err := p.RegisterShard(e.archive, e.endpoint, e.info); err != nil {
				if time.Now().After(deadline) {
					log.Fatalf("shard map %s:%d: giving up after %s: %v", path, e.line, maxWait, err)
				}
				failed = append(failed, e)
				continue
			}
			log.Printf("shard map: registered %s shard %d/%d at %s", e.archive, e.info.Index, e.info.Count, e.endpoint)
		}
		pending = failed
		if len(pending) > 0 {
			time.Sleep(retryEvery)
		}
	}
	log.Printf("shard map %s fully registered (%d entr%s)", path, len(entries), plural(len(entries), "y", "ies"))
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// logRegistrations wraps the portal handler to log federation growth.
func logRegistrations(p *portal.Portal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before := p.Registry().Len()
		p.Server().ServeHTTP(w, r)
		if after := p.Registry().Len(); after != before {
			log.Printf("federation now has %d member(s): %v", after, p.Archives())
		}
	})
}
