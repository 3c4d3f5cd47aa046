package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewPoolDefaults(t *testing.T) {
	if got := NewPool(0).Workers(); got != runtime.NumCPU() {
		t.Errorf("Workers = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := NewPool(-3).Workers(); got != runtime.NumCPU() {
		t.Errorf("negative workers = %d", got)
	}
	if got := NewPool(4).Workers(); got != 4 {
		t.Errorf("Workers = %d, want 4", got)
	}
}

func TestForEachVisitsAll(t *testing.T) {
	p := NewPool(8)
	var visited [100]int32
	err := p.ForEach(100, func(i int) error {
		atomic.AddInt32(&visited[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Errorf("index %d visited %d times", i, v)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := NewPool(2).ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("empty ForEach err = %v", err)
	}
	if err := NewPool(2).ForEach(-1, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("negative ForEach err = %v", err)
	}
}

func TestForEachReportsErrorButContinues(t *testing.T) {
	p := NewPool(4)
	var count int32
	wantErr := errors.New("boom")
	err := p.ForEach(50, func(i int) error {
		atomic.AddInt32(&count, 1)
		if i == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v", err)
	}
	if count != 50 {
		t.Errorf("only %d items ran; errors must not cancel the rest", count)
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	p := NewPool(4)
	err := p.ForEach(10, func(i int) error {
		if i == 3 {
			panic("bad partition")
		}
		return nil
	})
	if err == nil || err.Error() == "" {
		t.Errorf("panic should surface as error, got %v", err)
	}
}

func TestMapOrdering(t *testing.T) {
	p := NewPool(8)
	in := make([]int, 200)
	for i := range in {
		in[i] = i
	}
	out, err := Map(p, in, func(v int) (int, error) { return v * v, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapError(t *testing.T) {
	p := NewPool(2)
	_, err := Map(p, []int{1, 2, 3}, func(v int) (int, error) {
		if v == 2 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v, nil
	})
	if err == nil {
		t.Error("Map should propagate errors")
	}
}

// TestMapSeqMatchesMap checks Map against a sequential loop over the input.
func TestMapSeqMatchesMap(t *testing.T) {
	p := NewPool(4)
	f := func(in []int8) bool {
		vals := make([]int, len(in))
		for i, v := range in {
			vals[i] = int(v)
		}
		a, err := Map(p, vals, func(v int) (int, error) { return v * v, nil })
		if err != nil || len(a) != len(vals) {
			return false
		}
		for i, v := range vals {
			if a[i] != v*v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPoolSpeedsUpCPUWork(t *testing.T) {
	if testing.Short() || runtime.NumCPU() < 4 {
		t.Skip("needs multiple CPUs")
	}
	work := func(int) error {
		s := 0.0
		for k := 0; k < 2_000_000; k++ {
			s += float64(k % 7)
		}
		_ = s
		return nil
	}
	// Not a strict benchmark — just verify the pool actually parallelizes by
	// checking the parallel wall-clock beats the obviously serial bound.
	seq := NewPool(1)
	par := NewPool(runtime.NumCPU())
	t1 := timeIt(func() { _ = seq.ForEach(16, work) })
	t2 := timeIt(func() { _ = par.ForEach(16, work) })
	if t2 > t1 {
		t.Errorf("parallel (%v) slower than serial (%v)", t2, t1)
	}
}

func timeIt(f func()) int64 {
	start := nowNanos()
	f()
	return nowNanos() - start
}
