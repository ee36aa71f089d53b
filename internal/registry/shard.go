package registry

// Shard maps: the routing substrate of the scaled-out federation. An
// archive may be partitioned across N skynodes by HTM trixel ranges;
// each partition (a shard) has one leader — the append target — and any
// number of follower replicas serving reads. The shard map is learned
// through registration, exactly like flat entries: every replica
// registers itself with its shard's index, trixel range, and role, and
// the map accretes until it tiles the archive's full trixel universe,
// at which point queries may route by it.
//
// Validation is strict at registration time — overlapping or mutated
// ranges are configuration errors worth failing loudly on — while
// completeness (no gaps, every index present) is checked at query time,
// because a half-registered federation is a normal startup state.

import (
	"fmt"
	"sort"
)

// ShardRange is an inclusive range of HTM trixel IDs at the shard map's
// leaf level. It uses raw uint64 rather than htm.ID to keep the registry
// free of geometry dependencies; the values are htm.IDs.
type ShardRange struct {
	Lo, Hi uint64
}

// Contains reports whether id falls in the range.
func (r ShardRange) Contains(id uint64) bool { return id >= r.Lo && id <= r.Hi }

// Overlaps reports whether two ranges share any ID.
func (r ShardRange) Overlaps(o ShardRange) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Shard is one partition of an archive: its trixel range, its leader
// (append target), and its follower replicas (read targets).
type Shard struct {
	// Index is the shard's position in the archive's partition order;
	// merges concatenate shard outputs in Index order.
	Index int
	// Range is the shard's inclusive trixel range at the map's Level.
	Range ShardRange
	// Leader is the shard leader's SOAP endpoint.
	Leader string
	// Followers are replica endpoints serving reads of sealed data.
	Followers []string
}

func (s Shard) clone() Shard {
	c := s
	c.Followers = append([]string(nil), s.Followers...)
	return c
}

// ShardMap is the complete routing state of one sharded archive.
type ShardMap struct {
	// Archive is the archive name the map partitions.
	Archive string
	// Level is the HTM level at which Range bounds are expressed.
	Level int
	// Count is the declared number of shards; the map is routable only
	// once all Count shards have registered a leader.
	Count int
	// Shards is sorted by Index.
	Shards []Shard
}

func (m *ShardMap) clone() *ShardMap {
	if m == nil {
		return nil
	}
	c := *m
	c.Shards = make([]Shard, len(m.Shards))
	for i, s := range m.Shards {
		c.Shards[i] = s.clone()
	}
	return &c
}

// shardAt returns a pointer to the shard with the given index, or nil.
func (m *ShardMap) shardAt(index int) *Shard {
	for i := range m.Shards {
		if m.Shards[i].Index == index {
			return &m.Shards[i]
		}
	}
	return nil
}

// add merges one replica registration into the map, validating it
// against what is already known.
func (m *ShardMap) add(index int, rng ShardRange, level, count int, endpoint string, follower bool) error {
	if index < 0 || count <= 0 || index >= count {
		return fmt.Errorf("registry: shard %d of %d out of range for %s", index, count, m.Archive)
	}
	if rng.Lo > rng.Hi {
		return fmt.Errorf("registry: shard %s/%d has inverted range [%d,%d]", m.Archive, index, rng.Lo, rng.Hi)
	}
	if len(m.Shards) == 0 {
		m.Level, m.Count = level, count
	} else {
		if level != m.Level {
			return fmt.Errorf("registry: shard %s/%d registers level %d, map is at level %d", m.Archive, index, level, m.Level)
		}
		if count != m.Count {
			return fmt.Errorf("registry: shard %s/%d declares %d shards, map declares %d", m.Archive, index, count, m.Count)
		}
	}
	sh := m.shardAt(index)
	if sh == nil {
		for _, other := range m.Shards {
			if other.Range.Overlaps(rng) {
				return fmt.Errorf("registry: shard %s/%d range [%d,%d] overlaps shard %d [%d,%d]",
					m.Archive, index, rng.Lo, rng.Hi, other.Index, other.Range.Lo, other.Range.Hi)
			}
		}
		m.Shards = append(m.Shards, Shard{Index: index, Range: rng})
		sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].Index < m.Shards[j].Index })
		sh = m.shardAt(index)
	} else if sh.Range != rng {
		// A shard re-registering under a different range would silently
		// re-partition the archive under live queries: refuse.
		return fmt.Errorf("registry: shard %s/%d re-registers range [%d,%d], was [%d,%d]",
			m.Archive, index, rng.Lo, rng.Hi, sh.Range.Lo, sh.Range.Hi)
	}
	if follower {
		for i, f := range sh.Followers {
			if f == endpoint {
				sh.Followers[i] = endpoint // re-registration: idempotent
				return nil
			}
		}
		sh.Followers = append(sh.Followers, endpoint)
		return nil
	}
	sh.Leader = endpoint // re-registration replaces the leader
	return nil
}

// Complete reports whether the map is routable: all Count shards have
// registered a leader and their ranges tile [universeLo, universeHi]
// (the full trixel ID space at the map's level) in index order without
// gaps or inversions.
func (m *ShardMap) Complete(universeLo, universeHi uint64) error {
	if len(m.Shards) != m.Count {
		return fmt.Errorf("registry: %s has %d of %d shards registered", m.Archive, len(m.Shards), m.Count)
	}
	next := universeLo
	for i, s := range m.Shards {
		if s.Index != i {
			return fmt.Errorf("registry: %s shard indexes have a gap at %d", m.Archive, i)
		}
		if s.Leader == "" {
			return fmt.Errorf("registry: %s/%d has no leader", m.Archive, i)
		}
		if s.Range.Lo != next {
			return fmt.Errorf("registry: %s/%d starts at trixel %d, want %d (gap or overlap)", m.Archive, i, s.Range.Lo, next)
		}
		next = s.Range.Hi + 1
	}
	if next != universeHi+1 {
		return fmt.Errorf("registry: %s shards end at trixel %d, want %d", m.Archive, next-1, universeHi)
	}
	return nil
}

// Replicas returns shard s's endpoints in read-preference order:
// followers first (spreading point reads off the leader), leader last.
func (s Shard) Replicas() []string {
	out := make([]string, 0, len(s.Followers)+1)
	out = append(out, s.Followers...)
	if s.Leader != "" {
		out = append(out, s.Leader)
	}
	return out
}

// RegisterShard merges one shard-replica registration for an archive.
// follower=false registers (or replaces) the shard's leader.
func (r *Registry) RegisterShard(archive string, index int, rng ShardRange, level, count int, endpoint string, follower bool) error {
	if archive == "" {
		return fmt.Errorf("registry: shard registration needs an archive name")
	}
	if endpoint == "" {
		return fmt.Errorf("registry: shard %s/%d needs an endpoint", archive, index)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shardMaps == nil {
		r.shardMaps = map[string]*ShardMap{}
	}
	m := r.shardMaps[archive]
	if m == nil {
		m = &ShardMap{Archive: archive}
		r.shardMaps[archive] = m
	}
	return m.add(index, rng, level, count, endpoint, follower)
}

// ShardMap returns a copy of the archive's shard map, or nil when the
// archive is not sharded.
func (r *Registry) ShardMap(archive string) *ShardMap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shardMaps[archive].clone()
}
