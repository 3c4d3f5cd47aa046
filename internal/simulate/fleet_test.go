package simulate

import (
	"math"
	"sync"
	"testing"
	"time"

	"seagull/internal/timeseries"
)

func smallConfig() Config {
	return Config{Region: "test", Servers: 200, Weeks: 4, Seed: 1}
}

func TestGenerateFleetDeterministic(t *testing.T) {
	a := GenerateFleet(smallConfig())
	b := GenerateFleet(smallConfig())
	if len(a.Servers) != len(b.Servers) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Servers), len(b.Servers))
	}
	for i := range a.Servers {
		sa, sb := a.Servers[i], b.Servers[i]
		if sa.ID != sb.ID || sa.Class != sb.Class || sa.ShortLived != sb.ShortLived {
			t.Fatalf("server %d metadata differs", i)
		}
		if sa.Load().Len() != sb.Load().Len() {
			t.Fatalf("server %d load length differs", i)
		}
		for j := range sa.Load().Values {
			va, vb := sa.Load().Values[j], sb.Load().Values[j]
			if va != vb && !(timeseries.IsMissing(va) && timeseries.IsMissing(vb)) {
				t.Fatalf("server %d point %d differs: %v vs %v", i, j, va, vb)
			}
		}
	}
}

func TestFleetSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a := GenerateFleet(cfg)
	cfg.Seed = 2
	b := GenerateFleet(cfg)
	same := true
	for i := range a.Servers {
		if a.Servers[i].Class != b.Servers[i].Class {
			same = false
			break
		}
	}
	if same {
		// Classes could coincide; check load values too.
		for j, v := range a.Servers[0].Load().Values {
			if v != b.Servers[0].Load().Values[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should produce different fleets")
	}
}

func TestLoadBoundsAndLength(t *testing.T) {
	f := GenerateFleet(smallConfig())
	ppd := 288
	for _, s := range f.Servers {
		if s.Load().Interval != 5*time.Minute {
			t.Fatalf("%s interval = %v", s.ID, s.Load().Interval)
		}
		for j, v := range s.Load().Values {
			if timeseries.IsMissing(v) {
				continue
			}
			if v < 0 || v > 100 {
				t.Fatalf("%s point %d out of [0,100]: %v", s.ID, j, v)
			}
		}
		if !s.ShortLived {
			if s.Load().Len() != 4*7*ppd {
				t.Fatalf("%s long-lived load len = %d", s.ID, s.Load().Len())
			}
			if !s.CreatedAt.Equal(f.Config.Start.UTC()) && !s.CreatedAt.Equal(f.Config.Start) {
				t.Fatalf("%s long-lived created at %v", s.ID, s.CreatedAt)
			}
		} else {
			days := s.Load().NumDays()
			if days > 20 {
				t.Fatalf("%s short-lived but has %d days", s.ID, days)
			}
		}
	}
}

func TestShortLivedFraction(t *testing.T) {
	cfg := Config{Region: "t", Servers: 3000, Weeks: 4, Seed: 7}
	f := GenerateFleet(cfg)
	short := 0
	for _, s := range f.Servers {
		if s.ShortLived {
			short++
		}
	}
	got := float64(short) / float64(len(f.Servers))
	if math.Abs(got-PaperMix.ShortLived) > 0.03 {
		t.Errorf("short-lived fraction = %.3f, want ≈ %.3f", got, PaperMix.ShortLived)
	}
}

func TestPaperMixSumsToOne(t *testing.T) {
	m := PaperMix
	if sum := m.ShortLived + m.Stable + m.Daily + m.Weekly + m.NoPattern; math.Abs(sum-1) > 1e-9 {
		t.Errorf("PaperMix sums to %v", sum)
	}
}

func TestBackupParameters(t *testing.T) {
	f := GenerateFleet(smallConfig())
	for _, s := range f.Servers {
		if s.BackupDuration < 30*time.Minute || s.BackupDuration > 2*time.Hour {
			t.Fatalf("%s backup duration %v", s.ID, s.BackupDuration)
		}
		if s.DefaultBackupStart < 0 || s.DefaultBackupStart >= 24*time.Hour {
			t.Fatalf("%s default start %v", s.ID, s.DefaultBackupStart)
		}
		if s.WindowPoints() < 6 || s.WindowPoints() > 24 {
			t.Fatalf("%s window points %d", s.ID, s.WindowPoints())
		}
	}
}

// TestAlive checks server lifetimes: a long-lived server exists for the whole
// span, a short-lived one for less of it.
func TestAlive(t *testing.T) {
	f := GenerateFleet(smallConfig())
	for _, s := range f.Servers {
		if days := s.LifespanDays(); s.ShortLived == (days == 28) {
			t.Fatalf("server %s (short-lived %v) lives %d of 28 days", s.ID, s.ShortLived, days)
		}
	}
}

func TestMissingRate(t *testing.T) {
	cfg := smallConfig()
	cfg.MissingRate = 0.01
	f := GenerateFleet(cfg)
	total, missing := 0, 0
	for _, s := range f.Servers {
		total += s.Load().Len()
		missing += s.Load().MissingCount()
	}
	got := float64(missing) / float64(total)
	if got < 0.005 || got > 0.02 {
		t.Errorf("missing rate = %.4f, want ≈ 0.01", got)
	}
}

func TestStableServersAreFlat(t *testing.T) {
	f := GenerateFleet(smallConfig())
	for _, s := range f.Servers {
		if s.Class != ClassStable || s.ShortLived {
			continue
		}
		if std := s.Load().Std(); std > 5 {
			t.Errorf("%s stable but std = %.2f", s.ID, std)
		}
	}
}

func TestDailyServersRepeat(t *testing.T) {
	cfg := Config{Region: "t", Servers: 400, Weeks: 4, Seed: 3,
		Mix: Mix{Daily: 1}}
	f := GenerateFleet(cfg)
	for _, s := range f.Servers[:20] {
		days := s.Load().Days()
		// Same slot on consecutive days differs only by noise.
		d0, d1 := days[1], days[2]
		maxDiff := 0.0
		for j := range d0.Values {
			maxDiff = math.Max(maxDiff, math.Abs(d0.Values[j]-d1.Values[j]))
		}
		if maxDiff > 20 {
			t.Errorf("%s daily but consecutive days differ by %.1f", s.ID, maxDiff)
		}
	}
}

func TestWeeklyServersDifferAcrossWeek(t *testing.T) {
	cfg := Config{Region: "t", Servers: 200, Weeks: 4, Seed: 3, Mix: Mix{Weekly: 1}}
	f := GenerateFleet(cfg)
	// At least most weekly servers must show a large day-to-day divergence
	// somewhere (weekday factors differ) while matching week-over-week.
	diverging := 0
	for _, s := range f.Servers {
		days := s.Load().Days()
		var worstDaily float64
		for d := 1; d < 7; d++ {
			for j := range days[d].Values {
				worstDaily = math.Max(worstDaily, math.Abs(days[d].Values[j]-days[d-1].Values[j]))
			}
		}
		if worstDaily > 15 {
			diverging++
		}
		// Week-over-week must match tightly.
		for d := 7; d < 14; d++ {
			for j := range days[d].Values {
				if diff := math.Abs(days[d].Values[j] - days[d-7].Values[j]); diff > 20 {
					t.Fatalf("%s weekly but day %d differs from day %d by %.1f", s.ID, d, d-7, diff)
				}
			}
		}
	}
	if float64(diverging) < 0.8*float64(len(f.Servers)) {
		t.Errorf("only %d/%d weekly servers diverge day-over-day", diverging, len(f.Servers))
	}
}

func TestNoPatternServersVary(t *testing.T) {
	cfg := Config{Region: "t", Servers: 100, Weeks: 4, Seed: 9, Mix: Mix{NoPattern: 1}}
	f := GenerateFleet(cfg)
	for _, s := range f.Servers {
		if s.Load().Std() < 1 {
			t.Errorf("%s no-pattern but nearly constant (std %.2f)", s.ID, s.Load().Std())
		}
	}
}

func TestBurstValueDeterministic(t *testing.T) {
	cfg := Config{Region: "t", Servers: 5, Weeks: 2, Seed: 4, Mix: Mix{NoPattern: 1}}
	a := GenerateFleet(cfg)
	b := GenerateFleet(cfg)
	for i := range a.Servers {
		for j := range a.Servers[i].Load().Values {
			if a.Servers[i].Load().Values[j] != b.Servers[i].Load().Values[j] {
				t.Fatalf("no-pattern generation not deterministic at server %d point %d", i, j)
			}
		}
	}
}

func TestGenerateSQLPopulation(t *testing.T) {
	dbs := GenerateSQL(SQLConfig{Databases: 1000, Days: 28, Seed: 5})
	if len(dbs) != 1000 {
		t.Fatalf("databases = %d", len(dbs))
	}
	stable := 0
	for _, db := range dbs {
		if db.StableByConstruction {
			stable++
		}
		if db.Load.Interval != 15*time.Minute {
			t.Fatalf("%s interval %v", db.ID, db.Load.Interval)
		}
		if db.Load.NumDays() != 28 {
			t.Fatalf("%s days %d", db.ID, db.Load.NumDays())
		}
		for _, v := range db.Load.Values {
			if v < 0 || v > 100 {
				t.Fatalf("%s load out of range: %v", db.ID, v)
			}
		}
	}
	got := float64(stable) / float64(len(dbs))
	if math.Abs(got-0.1936) > 0.04 {
		t.Errorf("stable fraction = %.3f, want ≈ 0.1936", got)
	}
}

func TestGenerateSQLDeterministic(t *testing.T) {
	a := GenerateSQL(SQLConfig{Databases: 10, Days: 7, Seed: 5})
	b := GenerateSQL(SQLConfig{Databases: 10, Days: 7, Seed: 5})
	for i := range a {
		for j := range a[i].Load.Values {
			if a[i].Load.Values[j] != b[i].Load.Values[j] {
				t.Fatalf("SQL generation not deterministic at db %d point %d", i, j)
			}
		}
	}
}

func TestWithDefaults(t *testing.T) {
	cfg := Config{Region: "r", Servers: 1}.withDefaults()
	if cfg.Interval != 5*time.Minute || cfg.Weeks != 4 || cfg.Mix != PaperMix {
		t.Errorf("defaults = %+v", cfg)
	}
	sq := SQLConfig{Databases: 1}.withDefaults()
	if sq.Days != 28 || sq.StableFraction != 0.1936 {
		t.Errorf("sql defaults = %+v", sq)
	}
}

// TestFleetLazyMatchesEager is the lazy-materialization equivalence gate:
// a series deferred to an arbitrary later moment must be identical — point
// for point, including missing-value positions and timestamps — to the one
// materialized in generation order right after GenerateFleet (the eager
// reference), because each server's parked RNG sits exactly where its
// observation-noise draws start, independent of every other server.
func TestFleetLazyMatchesEager(t *testing.T) {
	cfg := Config{Region: "lazy", Servers: 40, Weeks: 3, Seed: 99, MissingRate: 0.01}
	eager := GenerateFleet(cfg)
	for _, s := range eager.Servers {
		s.Load()
	}
	lazy := GenerateFleet(cfg)
	for i := len(lazy.Servers) - 1; i >= 0; i-- {
		le, ll := eager.Servers[i].Load(), lazy.Servers[i].Load()
		if !le.Start.Equal(ll.Start) || le.Interval != ll.Interval || le.Len() != ll.Len() {
			t.Fatalf("server %d: shape mismatch eager=%v lazy=%v", i, le, ll)
		}
		for j := range le.Values {
			ve, vl := le.Values[j], ll.Values[j]
			if timeseries.IsMissing(ve) != timeseries.IsMissing(vl) {
				t.Fatalf("server %d point %d: missingness differs", i, j)
			}
			if !timeseries.IsMissing(ve) && ve != vl {
				t.Fatalf("server %d point %d: %v != %v", i, j, ve, vl)
			}
		}
	}
}

// TestFleetMetadataWithoutMaterialization: the per-server metadata the
// experiments consult before deciding to read telemetry must not force the
// series into existence.
func TestFleetMetadataWithoutMaterialization(t *testing.T) {
	fleet := GenerateFleet(Config{Region: "meta", Servers: 20, Weeks: 4, Seed: 3})
	for _, s := range fleet.Servers {
		if s.LifespanDays() <= 0 {
			t.Errorf("%s lifespan %d", s.ID, s.LifespanDays())
		}
		if s.WindowPoints() <= 0 {
			t.Errorf("%s window points %d", s.ID, s.WindowPoints())
		}
		if s.Interval() != 5*time.Minute {
			t.Errorf("%s interval %v", s.ID, s.Interval())
		}
		if s.gen == nil {
			t.Errorf("%s was materialized by metadata access", s.ID)
		}
	}
	// Cross-check the metadata answers against the materialized series.
	for _, s := range fleet.Servers[:5] {
		if got := s.Load().NumDays(); got != s.LifespanDays() {
			t.Errorf("%s lifespan %d != materialized %d", s.ID, s.LifespanDays(), got)
		}
	}
}

// TestFleetConcurrentMaterialization hammers Load from many goroutines; the
// sync.Once guard must hand every caller the same series (run with -race in
// CI's figure-smoke job).
func TestFleetConcurrentMaterialization(t *testing.T) {
	fleet := GenerateFleet(Config{Region: "conc", Servers: 8, Weeks: 2, Seed: 17})
	var wg sync.WaitGroup
	sums := make([][]float64, len(fleet.Servers))
	const readers = 4
	for i := range sums {
		sums[i] = make([]float64, readers)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, s := range fleet.Servers {
				load := s.Load()
				total := 0.0
				for _, v := range load.Values {
					total += v
				}
				sums[i][r] = total
			}
		}(r)
	}
	wg.Wait()
	for i := range sums {
		for r := 1; r < readers; r++ {
			if sums[i][r] != sums[i][0] {
				t.Fatalf("server %d: readers observed different series", i)
			}
		}
	}
}
