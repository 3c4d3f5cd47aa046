package stream

import (
	"reflect"
	"testing"
)

// fillNumeric sets every integer field of the struct p points at to a
// distinct value starting at base, so a sum that forgets or double-counts a
// field cannot cancel out.
func fillNumeric(p any, base uint64) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(base) + int64(i))
		case reflect.Uint64:
			f.SetUint(base + uint64(i))
		}
	}
}

// TestStatsAddSumsEveryCounter pins the one fleet-summation rule every caller
// (the router's /varz, the simulator's timeline and SLO report) now shares:
// Add sums every integer field — counters and the additive gauges servers and
// pending alike — field for field, exactly what the router's FleetTotals loop
// and simworkload's four fleet* functions each spelled out by hand.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	check := func(name string, sum, a, b any) {
		t.Helper()
		sv, av, bv := reflect.ValueOf(sum), reflect.ValueOf(a), reflect.ValueOf(b)
		for i := 0; i < sv.NumField(); i++ {
			field := name + "." + sv.Type().Field(i).Name
			switch sv.Field(i).Kind() {
			case reflect.Int:
				if got, want := sv.Field(i).Int(), av.Field(i).Int()+bv.Field(i).Int(); got != want {
					t.Errorf("%s = %d, want %d", field, got, want)
				}
			case reflect.Uint64:
				if got, want := sv.Field(i).Uint(), av.Field(i).Uint()+bv.Field(i).Uint(); got != want {
					t.Errorf("%s = %d, want %d", field, got, want)
				}
			}
		}
	}

	var ia, ib Stats
	fillNumeric(&ia, 100)
	fillNumeric(&ib, 2000)
	isum := ia
	isum.Add(ib)
	check("Stats", isum, ia, ib)

	var da, db DriftStats
	fillNumeric(&da, 100)
	fillNumeric(&db, 2000)
	dsum := da
	dsum.Add(db)
	check("DriftStats", dsum, da, db)

	var ra, rb RefreshStats
	fillNumeric(&ra, 100)
	fillNumeric(&rb, 2000)
	rsum := ra
	rsum.Add(rb)
	check("RefreshStats", rsum, ra, rb)
	if rsum.Pending != ra.Pending+rb.Pending {
		t.Errorf("pending is an additive gauge: %d", rsum.Pending)
	}

	var sa, sb SweeperStats
	fillNumeric(&sa, 100)
	fillNumeric(&sb, 2000)
	ssum := sa
	ssum.Add(sb)
	check("SweeperStats", ssum, sa, sb)
}

// TestDurabilityStatsAddKeepsConfiguration: counters sum, but the WAL flag
// and the commit interval are configuration — summing δ across replicas would
// report a loss bound nobody configured — and recovery outcomes are
// per-replica, so the total carries none. A fleet of one never calls Add and
// keeps its Recovered, as the simulator's single-process report always did.
func TestDurabilityStatsAddKeepsConfiguration(t *testing.T) {
	a := DurabilityStats{WAL: true, DeltaMS: 100, Recovered: &RecoveryStats{Servers: 3}}
	b := DurabilityStats{WAL: true, DeltaMS: 100, Recovered: &RecoveryStats{Servers: 4}}
	fillNumeric(&a, 100)
	fillNumeric(&b, 2000)
	sum := a
	sum.Add(b)
	want := DurabilityStats{
		WAL: true, DeltaMS: 100,
		Commits:       a.Commits + b.Commits,
		CommitRecords: a.CommitRecords + b.CommitRecords,
		CommitBytes:   a.CommitBytes + b.CommitBytes,
		CommitErrors:  a.CommitErrors + b.CommitErrors,
		Dropped:       a.Dropped + b.Dropped,
		Snapshots:     a.Snapshots + b.Snapshots,
		SnapshotErrs:  a.SnapshotErrs + b.SnapshotErrs,
		Truncations:   a.Truncations + b.Truncations,
	}
	if sum != want {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
	if a.Recovered == nil || a.Recovered.Servers != 3 {
		t.Fatal("Add reached through the operand's Recovered pointer")
	}
}
