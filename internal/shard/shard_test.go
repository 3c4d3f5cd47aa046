package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("replica-%02d", i)
	}
	return names
}

func fleetKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("westus2-srv-%06d", i)
	}
	return keys
}

// TestBalance pins the headline property: at fleet scale every replica's key
// share is within 10% of the even split, for each N in the table.
func TestBalance(t *testing.T) {
	const fleet = 50_000
	keys := fleetKeys(fleet)
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			m, err := New(42, replicaNames(n))
			if err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			for _, k := range keys {
				counts[m.Owner(k)]++
			}
			if len(counts) != n {
				t.Fatalf("only %d of %d replicas own keys", len(counts), n)
			}
			even := float64(fleet) / float64(n)
			for name, c := range counts {
				if dev := math.Abs(float64(c)-even) / even; dev > 0.10 {
					t.Errorf("replica %s owns %d keys, %.1f%% off the even %0.f",
						name, c, dev*100, even)
				}
			}
		})
	}
}

// TestMinimalMovementOnJoin pins that adding a replica moves at most
// 1/(N+1) + ε of the keys — and that every moved key lands on the newcomer
// (no shuffling between surviving replicas). The grown map is built from
// scratch, as a router restarted with one more replica builds it.
func TestMinimalMovementOnJoin(t *testing.T) {
	const fleet = 50_000
	keys := fleetKeys(fleet)
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			m, err := New(7, replicaNames(n))
			if err != nil {
				t.Fatal(err)
			}
			grown, err := New(7, append(replicaNames(n), "replica-new"))
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, k := range keys {
				before, after := m.Owner(k), grown.Owner(k)
				if before == after {
					continue
				}
				if after != "replica-new" {
					t.Fatalf("key %s moved %s -> %s, not to the joining replica", k, before, after)
				}
				moved++
			}
			bound := float64(fleet)/float64(n+1) + 0.02*float64(fleet)
			if float64(moved) > bound {
				t.Errorf("join moved %d keys, above 1/(N+1)+eps bound %.0f", moved, bound)
			}
			if moved == 0 {
				t.Error("join moved no keys: newcomer owns nothing")
			}
		})
	}
}

// TestMinimalMovementOnLeave pins that removing a replica moves exactly the
// keys it owned: survivors keep every key they had, and the departed
// replica's share (≈ 1/N, so ≤ 1/N + ε) is redistributed. The shrunk map is
// built from scratch over the N-1 survivors.
func TestMinimalMovementOnLeave(t *testing.T) {
	const fleet = 50_000
	keys := fleetKeys(fleet)
	for _, n := range []int{2, 4, 8, 16} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			m, err := New(7, replicaNames(n))
			if err != nil {
				t.Fatal(err)
			}
			departed := "replica-01"
			survivors := slices.DeleteFunc(replicaNames(n), func(name string) bool { return name == departed })
			shrunk, err := New(7, survivors)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, k := range keys {
				before, after := m.Owner(k), shrunk.Owner(k)
				if before == departed {
					if after == departed {
						t.Fatalf("key %s still owned by departed replica", k)
					}
					moved++
					continue
				}
				if before != after {
					t.Fatalf("key %s moved %s -> %s though its owner never left", k, before, after)
				}
			}
			bound := float64(fleet)/float64(n) + 0.02*float64(fleet)
			if float64(moved) > bound {
				t.Errorf("leave moved %d keys, above 1/N+eps bound %.0f", moved, bound)
			}
		})
	}
}

// TestDeterminism pins that ownership is a pure function of (seed, members):
// rebuilding the map — in any member order — reproduces it, and a different
// seed produces a genuinely different assignment.
func TestDeterminism(t *testing.T) {
	keys := fleetKeys(5_000)
	a, _ := New(1, []string{"r0", "r1", "r2", "r3"})
	b, _ := New(1, []string{"r3", "r1", "r0", "r2"}) // permuted membership
	c, _ := New(2, []string{"r0", "r1", "r2", "r3"})
	differs := 0
	for _, k := range keys {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("same (seed, members) disagree on %s", k)
		}
		if a.Owner(k) != c.Owner(k) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("seed change did not alter the assignment")
	}
}

func TestSplitPreservesPositions(t *testing.T) {
	m, err := New(9, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	keys := fleetKeys(1_000)
	parts := m.Split(keys)
	seen := 0
	for name, idxs := range parts {
		prev := -1
		for _, i := range idxs {
			if i <= prev {
				t.Fatalf("replica %s index order broken: %d after %d", name, i, prev)
			}
			prev = i
			if got := m.Owner(keys[i]); got != name {
				t.Fatalf("key %s grouped under %s but owned by %s", keys[i], name, got)
			}
			seen++
		}
	}
	if seen != len(keys) {
		t.Fatalf("split covered %d of %d keys", seen, len(keys))
	}
}

func TestMembershipErrors(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := New(0, []string{"a", "a"}); err == nil {
		t.Error("duplicate replica accepted")
	}
	if _, err := New(0, []string{""}); err == nil {
		t.Error("empty replica name accepted")
	}
	m, err := New(0, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 2 || m.Seed() != 0 {
		t.Error("accessors are wrong")
	}
}
