package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Tests for the chunked dispatcher and the scratch/MapInto hooks added for
// the allocation-lean hot path.

// TestForEachMatchesSequentialLoop is the property-style equivalence check:
// for arbitrary (n, workers), the chunked ForEach visits exactly the index
// set a sequential loop would, each exactly once.
func TestForEachMatchesSequentialLoop(t *testing.T) {
	f := func(nRaw uint16, workersRaw uint8) bool {
		n := int(nRaw % 700)
		workers := int(workersRaw%12) + 1
		visited := make([]int32, n)
		err := NewPool(workers).ForEach(n, func(i int) error {
			atomic.AddInt32(&visited[i], 1)
			return nil
		})
		if err != nil {
			return false
		}
		for _, v := range visited {
			if v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Chunk-boundary shapes that the generic property test may miss.
func TestForEachChunkBoundaries(t *testing.T) {
	for _, tc := range [][2]int{
		{1, 8},   // n < workers
		{7, 8},   // n just under workers
		{8, 8},   // n == workers
		{32, 8},  // n == workers*4 (exactly one chunk per claim round)
		{33, 8},  // one extra item
		{255, 8}, // chunk > 1 with remainder
	} {
		n, workers := tc[0], tc[1]
		var count int32
		if err := NewPool(workers).ForEach(n, func(int) error {
			atomic.AddInt32(&count, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if int(count) != n {
			t.Errorf("n=%d workers=%d: ran %d items", n, workers, count)
		}
	}
}

func TestForEachScratchPerWorker(t *testing.T) {
	type scratch struct {
		worker int
		items  int32
	}
	var (
		mu      sync.Mutex
		created []*scratch
	)
	const n, workers = 500, 4
	err := ForEachScratch(NewPool(workers), n, func() *scratch {
		mu.Lock()
		defer mu.Unlock()
		s := &scratch{worker: len(created)}
		created = append(created, s)
		return s
	}, func(i int, s *scratch) error {
		// No atomics: each scratch must be confined to one worker goroutine,
		// so plain increments racing would be caught by -race.
		s.items++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(created) == 0 || len(created) > workers {
		t.Fatalf("newScratch ran %d times, want 1..%d", len(created), workers)
	}
	var total int32
	for _, s := range created {
		total += s.items
	}
	if total != n {
		t.Errorf("scratch items total %d, want %d", total, n)
	}
}

func TestForEachScratchSequential(t *testing.T) {
	creations := 0
	var got []int
	err := ForEachScratch(NewPool(1), 5, func() *int {
		creations++
		v := 0
		return &v
	}, func(i int, s *int) error {
		*s++
		got = append(got, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if creations != 1 {
		t.Errorf("sequential path created %d scratches", creations)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("sequential path order got[%d]=%d", i, v)
		}
	}
}

func TestForEachScratchError(t *testing.T) {
	wantErr := errors.New("boom")
	var count int32
	err := ForEachScratch(NewPool(3), 40, func() int { return 0 }, func(i int, _ int) error {
		atomic.AddInt32(&count, 1)
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	if count != 40 {
		t.Errorf("error cancelled remaining items: ran %d", count)
	}
}

func TestMapIntoReusesBuffer(t *testing.T) {
	p := NewPool(4)
	in := make([]int, 300)
	for i := range in {
		in[i] = i
	}
	out := make([]int, len(in))
	for round := 0; round < 3; round++ {
		r := round
		if err := MapInto(p, in, out, func(v int) (int, error) { return v * r, nil }); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*r {
				t.Fatalf("round %d: out[%d] = %d, want %d", r, i, v, i*r)
			}
		}
	}
}

func TestMapIntoShortOut(t *testing.T) {
	err := MapInto(NewPool(2), []int{1, 2, 3}, make([]int, 2), func(v int) (int, error) { return v, nil })
	if err == nil {
		t.Error("MapInto must reject an undersized out slice")
	}
}

func TestMapIntoError(t *testing.T) {
	out := make([]int, 4)
	err := MapInto(NewPool(2), []int{1, 2, 3, 4}, out, func(v int) (int, error) {
		if v == 3 {
			return 0, fmt.Errorf("item %d", v)
		}
		return v * 10, nil
	})
	if err == nil {
		t.Fatal("MapInto must propagate errors")
	}
}

// TestForEachSequentialPanic exercises panic recovery on the workers==1 fast
// path, which bypasses the goroutine dispatcher entirely.
func TestForEachSequentialPanic(t *testing.T) {
	var count int32
	err := NewPool(1).ForEach(6, func(i int) error {
		atomic.AddInt32(&count, 1)
		if i == 2 {
			panic("sequential boom")
		}
		return nil
	})
	if err == nil {
		t.Error("sequential panic must surface as error")
	}
	if count != 6 {
		t.Errorf("sequential panic cancelled remaining items: ran %d", count)
	}
}
