package relation

import "sort"

// Partitioner assigns tuples to shards by hashing a configurable key
// projection per relation. The key is the sharding contract the engine
// layers build on:
//
//   - two tuples that agree on the key land on the same shard (the hash
//     reads only key values, via the same Value.AppendKey bytes that
//     back projection-key maps, so Equal values hash equally);
//   - a CFD/eCFD whose LHS contains the key is therefore shard-local:
//     every LHS group is wholly inside one shard;
//   - an update that changes a key attribute may change the tuple's
//     shard — the ShardedDB router turns it into a cross-shard move.
//
// A relation without an explicit key defaults to the whole tuple, which
// balances load but makes no constraint shard-local (fine for CIND
// sides, which probe the target on every shard anyway).
type Partitioner struct {
	shards int
	keys   map[string][]int
}

// NewPartitioner returns a partitioner over the given shard count
// (minimum 1) with no per-relation keys set.
func NewPartitioner(shards int) *Partitioner {
	if shards < 1 {
		shards = 1
	}
	return &Partitioner{shards: shards, keys: make(map[string][]int)}
}

// Shards returns the shard count.
func (p *Partitioner) Shards() int { return p.shards }

// SetKey sets the hash-key attribute positions for a relation. The
// positions are normalized to sorted ascending order (the key is a set;
// hashing in a canonical order makes the shard assignment independent
// of how the caller listed it). An empty pos resets to the whole-tuple
// default.
func (p *Partitioner) SetKey(rel string, pos []int) {
	if len(pos) == 0 {
		delete(p.keys, rel)
		return
	}
	k := append([]int(nil), pos...)
	sort.Ints(k)
	p.keys[rel] = k
}

// Key returns the key positions for a relation, nil when the relation
// defaults to whole-tuple hashing. Callers must not modify the slice.
func (p *Partitioner) Key(rel string) []int { return p.keys[rel] }

// KeyTouches reports whether updating attribute pos can change a
// tuple's shard: false with a single shard, true for whole-tuple-hashed
// relations (no explicit key), and otherwise true iff pos is one of the
// key positions. Routers use it to skip move handling for updates that
// provably cannot re-home a tuple.
func (p *Partitioner) KeyTouches(rel string, pos int) bool {
	if p.shards == 1 {
		return false
	}
	key, ok := p.keys[rel]
	if !ok {
		return true
	}
	for _, q := range key {
		if q == pos {
			return true
		}
	}
	return false
}

// ShardOf returns the shard the tuple belongs on.
func (p *Partitioner) ShardOf(rel string, t Tuple) int {
	if p.shards == 1 {
		return 0
	}
	buf := make([]byte, 0, 64)
	if key, ok := p.keys[rel]; ok {
		for _, q := range key {
			buf = append(t[q].AppendKey(buf), '\x01')
		}
	} else {
		for _, v := range t {
			buf = append(v.AppendKey(buf), '\x01')
		}
	}
	return int(shardHasher(rel, buf) % uint64(p.shards))
}

// shardHasher hashes a relation name plus key bytes to a shard bucket.
// It is FNV-1a; a variable only so equivalence tests can force
// collisions (all tuples on one shard, or adversarial splits) and prove
// sharded results do not depend on placement. See
// SetShardHasherForTest.
var shardHasher = fnv1aShard

func fnv1aShard(rel string, key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(rel); i++ {
		h ^= uint64(rel[i])
		h *= prime64
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// SetShardHasherForTest overrides the shard hasher — placement
// independence tests substitute degenerate hashers (everything on one
// shard, parity splits) to prove detection results never depend on
// where tuples land. Returns a restore func; not safe to call while
// routers are running.
func SetShardHasherForTest(h func(rel string, key []byte) uint64) (restore func()) {
	old := shardHasher
	shardHasher = h
	return func() { shardHasher = old }
}
