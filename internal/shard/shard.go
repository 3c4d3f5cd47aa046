// Package shard assigns server IDs to serving replicas by rendezvous
// (highest-random-weight) consistent hashing.
//
// Every key scores each replica with a 64-bit mix of (seed, replica, key) and
// is owned by the replica with the highest score. The properties the sharded
// fleet rests on fall straight out of that construction:
//
//   - Deterministic: ownership is a pure function of (seed, member set, key).
//     Two routers configured identically route identically — the map carries
//     no state beyond its inputs.
//   - Balanced: scores are uniform 64-bit draws, so keys split evenly across
//     replicas (the property test pins deviation < 10% at fleet scale).
//   - Minimal movement: removing a replica moves exactly the keys it owned
//     (every other key's argmax is untouched); adding one moves only the keys
//     the newcomer now wins — 1/(N+1) of them in expectation. No other
//     assignment changes, which is what keeps a membership change from
//     invalidating every replica's rings, warm pools and WAL at once.
//
// Rendezvous hashing was chosen over a virtual-node ring because it gets
// provably tight balance and exactly-minimal movement with no tuning knob
// (a vnode ring needs hundreds of vnodes per replica to approximate either),
// and O(N) lookup is irrelevant at router fan-in sizes (N ≤ dozens).
package shard

import (
	"fmt"
	"sort"
)

// Map is an immutable assignment of string keys onto a replica set, safe for
// concurrent use. A different membership is a new Map built with New.
type Map struct {
	seed     uint64
	names    []string // sorted, unique
	premixed []uint64 // per-replica hash, premixed with the seed
}

// New builds a map over the given replica names. Names must be non-empty and
// unique; order does not matter (the map sorts internally, so any permutation
// of the same membership is the same map).
func New(seed uint64, replicas []string) (*Map, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("shard: replica set must not be empty")
	}
	names := append([]string(nil), replicas...)
	sort.Strings(names)
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("shard: replica name must not be empty")
		}
		if i > 0 && names[i-1] == n {
			return nil, fmt.Errorf("shard: duplicate replica %q", n)
		}
	}
	m := &Map{seed: seed, names: names, premixed: make([]uint64, len(names))}
	for i, n := range names {
		m.premixed[i] = mix64(hash64(n) ^ m.seed)
	}
	return m, nil
}

// Seed returns the seed the map was built with.
func (m *Map) Seed() uint64 { return m.seed }

// N returns the replica count.
func (m *Map) N() int { return len(m.names) }

// Replicas returns the sorted member names (a copy).
func (m *Map) Replicas() []string { return append([]string(nil), m.names...) }

// OwnerIndex returns the index (into Replicas()) of the replica owning key.
func (m *Map) OwnerIndex(key string) int {
	kh := hash64(key)
	best, bestScore := 0, uint64(0)
	for i, ph := range m.premixed {
		// Scores are full 64-bit mixes, so ties are ~impossible; the strict >
		// keeps any tie on the lowest-sorted name, deterministically.
		if s := mix64(ph ^ kh); s > bestScore || i == 0 {
			best, bestScore = i, s
		}
	}
	return best
}

// Owner returns the name of the replica owning key.
func (m *Map) Owner(key string) string { return m.names[m.OwnerIndex(key)] }

// Split partitions keys by owning replica, preserving each key's position via
// the returned index slices: keys[idx[name][j]] is the j-th key owned by
// name. The router's batch splitter is this function.
func (m *Map) Split(keys []string) map[string][]int {
	out := make(map[string][]int, len(m.names))
	for i, k := range keys {
		owner := m.names[m.OwnerIndex(k)]
		out[owner] = append(out[owner], i)
	}
	return out
}

// hash64 is FNV-1a over the key bytes — fast, allocation-free, and stable
// across processes (no runtime-randomized map hashing can leak in).
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that turns
// the structured FNV/seed xor into uniform 64-bit scores.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
