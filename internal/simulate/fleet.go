// Package simulate generates synthetic PostgreSQL/MySQL server fleets and
// SQL database populations whose statistical structure mirrors the Azure
// production telemetry the paper was evaluated on: per-server average
// customer CPU load percentage at 5-minute granularity (servers) and
// 15-minute granularity (SQL databases, Appendix A).
//
// The generator is the substitution for production data we cannot access
// (see DESIGN.md): server archetypes — stable, daily pattern, weekly pattern,
// unstable without pattern, short-lived — are mixed according to the
// population shares the paper reports in Figure 3, and every stochastic
// choice is driven by an explicit seed so experiments are reproducible.
//
// Concurrency: fleets materialize telemetry lazily behind a per-server
// sync.Once, so concurrent readers of Server.Load are safe; mutating a
// returned series is not (View/FillGaps/Clone copy before mutating).
// Equivalence: a server's series is the same whenever and in whatever order
// it is first read (each server parks its own RNG right after its metadata
// draws), and metadata queries never force materialization.
package simulate

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"seagull/internal/timeseries"
)

// Class is the typical-customer-activity archetype of a server (Section 3.2).
type Class int

const (
	// ClassStable servers are accurately predicted by their average load
	// (Definition 4).
	ClassStable Class = iota
	// ClassDaily servers repeat the same load profile every day
	// (Definition 5).
	ClassDaily
	// ClassWeekly servers repeat the profile of the same weekday one week
	// earlier but not the previous day (Definition 6).
	ClassWeekly
	// ClassNoPattern servers follow neither a daily nor a weekly pattern.
	ClassNoPattern
)

// String returns the class name used in experiment output.
func (c Class) String() string {
	switch c {
	case ClassStable:
		return "stable"
	case ClassDaily:
		return "daily"
	case ClassWeekly:
		return "weekly"
	case ClassNoPattern:
		return "nopattern"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Mix is the fleet class composition. Fractions must sum to 1; ShortLived
// servers additionally receive one of the four load shapes at random but live
// under three weeks (Definition 3).
//
// PaperMix reproduces Figure 3.
type Mix struct {
	ShortLived float64
	Stable     float64
	Daily      float64
	Weekly     float64
	NoPattern  float64
}

// PaperMix is the population of Figure 3: 42.1% short-lived, 53.5% stable,
// 0.1% daily, 0.1% weekly, 4.2% without pattern.
var PaperMix = Mix{ShortLived: 0.421, Stable: 0.535, Daily: 0.001, Weekly: 0.001, NoPattern: 0.042}

// Config describes one regional fleet to generate.
type Config struct {
	Region   string
	Servers  int
	Weeks    int           // telemetry span in whole weeks
	Interval time.Duration // sampling interval; 0 means 5 minutes
	Start    time.Time     // span start; zero means Sunday 2019-12-01 UTC
	Mix      Mix           // class composition; zero Mix means PaperMix
	// BusyFraction of long-lived servers get peak load above 60% of capacity
	// (the "busy server" population of Figure 13(a)). Default 0.12.
	BusyFraction float64
	// CapacityFraction of long-lived servers saturate CPU capacity at least
	// once a week (Figure 13(b) reports 3.7%). Default 0.037.
	CapacityFraction float64
	// MissingRate is the per-point probability that telemetry is absent,
	// exercising validation and gap repair. Default 0 (no gaps).
	MissingRate float64
	Seed        int64
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC) // a Sunday
	}
	if c.Mix == (Mix{}) {
		c.Mix = PaperMix
	}
	if c.BusyFraction == 0 {
		c.BusyFraction = 0.12
	}
	if c.CapacityFraction == 0 {
		c.CapacityFraction = 0.037
	}
	if c.Weeks == 0 {
		c.Weeks = 4
	}
	return c
}

// Server is one synthetic PostgreSQL/MySQL server with its full telemetry.
type Server struct {
	ID     string
	Region string
	Class  Class
	// ShortLived servers existed for under three weeks (Definition 3).
	ShortLived bool
	Busy       bool // peak load above 60% of capacity
	CreatedAt  time.Time
	DeletedAt  time.Time // zero when the server outlives the span
	// BackupDuration is the expected length of a full backup; the LL window
	// length is BackupDuration/Interval observations (Definition 7).
	BackupDuration time.Duration
	// BackupDay is the weekday the server is due for its weekly full backup.
	BackupDay time.Weekday
	// DefaultBackupStart is the offset from midnight of the current
	// (activity-agnostic) backup window the automated workflow uses.
	DefaultBackupStart time.Duration

	// Load materialization state: the series either exists (load) or is
	// derivable on demand from the parked per-server generator (gen).
	interval time.Duration
	points   int
	once     sync.Once
	load     timeseries.Series
	gen      func() timeseries.Series
}

// Load returns the telemetry covering the server's lifetime within the
// span, materializing it from the parked per-server RNG on first access.
// Materialization is synchronized, so concurrent partitions may touch the
// same server; the returned series must be treated as read-only (Slice,
// View, FillGaps and friends all copy before mutating).
func (s *Server) Load() timeseries.Series {
	s.once.Do(s.materialize)
	return s.load
}

func (s *Server) materialize() {
	if s.gen != nil {
		s.load = s.gen()
		s.gen = nil
	}
}

// Interval returns the telemetry sampling interval without materializing
// the series.
func (s *Server) Interval() time.Duration { return s.interval }

// LifespanDays returns the number of whole days the server existed within
// the generated span. It is answerable from metadata alone — no
// materialization.
func (s *Server) LifespanDays() int {
	ppd := int(24 * time.Hour / s.interval)
	if ppd == 0 {
		return 0
	}
	return s.points / ppd
}

// WindowPoints returns the LL window length in observations for this
// server, from metadata alone.
func (s *Server) WindowPoints() int {
	return int(s.BackupDuration / s.interval)
}

// Fleet is a generated regional server population.
type Fleet struct {
	Config  Config
	Servers []*Server
	byID    map[string]*Server
}

// TrueDay returns a server's actual load, gaps filled, over the day that
// starts at day — the actuals source used when evaluating scheduling
// impact. ok is false for an unknown server or a day outside its telemetry.
func (f *Fleet) TrueDay(serverID string, day time.Time) (timeseries.Series, bool) {
	srv := f.byID[serverID]
	if srv == nil {
		return timeseries.Series{}, false
	}
	load := srv.Load()
	idx, ok := load.IndexOf(day)
	if !ok {
		return timeseries.Series{}, false
	}
	sub, err := load.View(idx, idx+load.PointsPerDay())
	if err != nil {
		return timeseries.Series{}, false
	}
	return sub.FillGaps(), true
}

// Span returns the fleet telemetry interval [start, end).
func (f *Fleet) Span() (time.Time, time.Time) {
	end := f.Config.Start.Add(time.Duration(f.Config.Weeks) * 7 * 24 * time.Hour)
	return f.Config.Start, end
}

// GenerateFleet builds a deterministic synthetic fleet for cfg.
func GenerateFleet(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	fleet := &Fleet{Config: cfg, Servers: make([]*Server, 0, cfg.Servers),
		byID: make(map[string]*Server, cfg.Servers)}
	for i := 0; i < cfg.Servers; i++ {
		// Every server owns an independent generator derived from the fleet
		// seed so the fleet is reproducible regardless of generation order.
		srng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*7919 + 17))
		srv := generateServer(cfg, i, srng)
		fleet.Servers = append(fleet.Servers, srv)
		fleet.byID[srv.ID] = srv
	}
	_ = rng
	return fleet
}

func pickClass(m Mix, r float64) (Class, bool) {
	if r < m.ShortLived {
		// Short-lived servers still have a load shape; weight it toward the
		// long-lived shape distribution.
		return ClassStable, true
	}
	r -= m.ShortLived
	switch {
	case r < m.Stable:
		return ClassStable, false
	case r < m.Stable+m.Daily:
		return ClassDaily, false
	case r < m.Stable+m.Daily+m.Weekly:
		return ClassWeekly, false
	default:
		return ClassNoPattern, false
	}
}

func generateServer(cfg Config, idx int, rng *rand.Rand) *Server {
	class, short := pickClass(cfg.Mix, rng.Float64())
	if short {
		// Give short-lived servers a mixture of shapes too.
		switch {
		case rng.Float64() < 0.8:
			class = ClassStable
		case rng.Float64() < 0.5:
			class = ClassDaily
		default:
			class = ClassNoPattern
		}
	}

	s := &Server{
		ID:         fmt.Sprintf("%s-srv-%06d", cfg.Region, idx),
		Region:     cfg.Region,
		Class:      class,
		ShortLived: short,
	}

	// Backup parameters: full backups take 30 minutes to 2 hours and are due
	// weekly on a fixed weekday.
	s.BackupDuration = time.Duration(30+rng.Intn(91)) * time.Minute
	s.BackupDay = time.Weekday(rng.Intn(7))
	// Default (activity-agnostic) windows: many night slots chosen years ago
	// by operators, the rest uniform across the day — the paper's automated
	// workflow "does not take typical customer activity patterns into
	// account", so a sizable minority of defaults collide with business hours.
	if rng.Float64() < 0.55 {
		s.DefaultBackupStart = time.Duration(rng.Intn(6*12)) * 5 * time.Minute // 00:00–06:00
	} else {
		s.DefaultBackupStart = time.Duration(rng.Intn(24*12)) * 5 * time.Minute
	}

	spanEnd := cfg.Start.Add(time.Duration(cfg.Weeks) * 7 * 24 * time.Hour)
	s.CreatedAt = cfg.Start
	if short {
		// Definition 3: lifespan under three weeks. Place it inside the span.
		lifeDays := 1 + rng.Intn(20)
		maxOffset := cfg.Weeks*7 - lifeDays
		if maxOffset < 0 {
			maxOffset = 0
			lifeDays = cfg.Weeks * 7
		}
		offset := rng.Intn(maxOffset + 1)
		s.CreatedAt = cfg.Start.Add(time.Duration(offset) * 24 * time.Hour)
		s.DeletedAt = s.CreatedAt.Add(time.Duration(lifeDays) * 24 * time.Hour)
	}

	shape := newShape(class, cfg, rng)
	s.Busy = shape.peak() > 60
	from, to := s.CreatedAt, spanEnd
	if !s.DeletedAt.IsZero() && s.DeletedAt.Before(to) {
		to = s.DeletedAt
	}
	n := int(to.Sub(from) / cfg.Interval)
	s.interval = cfg.Interval
	s.points = n
	// Park the generator: rng sits exactly after the metadata draws, so
	// materializing now or later consumes the identical stream.
	startDay := int(from.Sub(cfg.Start) / (24 * time.Hour))
	s.gen = func() timeseries.Series {
		return materializeLoad(cfg, shape, rng, from, n, startDay)
	}
	return s
}

// materializeLoad draws the n-point series for a server whose metadata has
// already consumed its prefix of rng's stream.
func materializeLoad(cfg Config, sh *shape, rng *rand.Rand, from time.Time, n, startDay int) timeseries.Series {
	vals := make([]float64, n)
	ppd := int(24 * time.Hour / cfg.Interval)
	for i := range vals {
		day := startDay + i/ppd
		slot := i % ppd
		v := sh.at(day, slot, ppd, rng)
		if cfg.MissingRate > 0 && rng.Float64() < cfg.MissingRate {
			vals[i] = timeseries.Missing
			continue
		}
		vals[i] = clamp(v, 0, 100)
	}
	return timeseries.New(from, cfg.Interval, vals)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// shape produces the deterministic-plus-noise load value for (day, slot).
type shape struct {
	class Class
	base  float64
	noise float64
	// Daily/weekly plateau: business-hours bump.
	amp        float64
	bumpStart  int // slot index where the bump begins
	bumpLen    int // bump length in slots
	weekFactor [7]float64
	// No-pattern servers: per-day random bursts are derived from a per-day
	// seed so the same (day, slot) always yields the same value.
	burstSeed int64
	maxPeak   float64
	// Cached burst layout for the most recently computed day, plus the
	// re-seeded per-day PRNG (one retained source instead of a fresh
	// ~5KB rngSource allocation per server-day).
	burstDay    int
	burstLevels []float64 // per-slot structural load for burstDay
	dayRNG      *rand.Rand
}

func newShape(class Class, cfg Config, rng *rand.Rand) *shape {
	// Observation noise: the +10/−5 bound must hold for well-behaved servers
	// even over short (30-minute) LL windows, so per-point noise stays under
	// ~1.3 points, matching the tight traces of the paper's Figures 4–6.
	sh := &shape{class: class, noise: 0.7 + rng.Float64()*0.6}
	busy := rng.Float64() < cfg.BusyFraction
	capacity := rng.Float64() < cfg.CapacityFraction
	ppd := int(24 * time.Hour / cfg.Interval)

	switch class {
	case ClassStable:
		sh.base = 5 + rng.Float64()*35
		if busy {
			sh.base = 62 + rng.Float64()*25
		}
		if capacity {
			sh.base = 97 + rng.Float64()*3 // pegged at CPU capacity
		}
		sh.maxPeak = sh.base
	case ClassDaily, ClassWeekly:
		sh.base = 5 + rng.Float64()*20
		sh.amp = 25 + rng.Float64()*30
		if busy {
			sh.amp = 50 + rng.Float64()*30
		}
		sh.bumpStart = ppd/4 + rng.Intn(ppd/4) // bump starts 06:00–12:00
		sh.bumpLen = ppd/6 + rng.Intn(ppd/4)   // 4–10 hours
		for d := range sh.weekFactor {
			sh.weekFactor[d] = 1
		}
		if class == ClassWeekly {
			// A weekly pattern: weekends differ strongly from weekdays and
			// each weekday carries its own stable factor, so the previous
			// *equivalent* day predicts but the previous day does not.
			for d := range sh.weekFactor {
				sh.weekFactor[d] = 0.35 + rng.Float64()*1.0
			}
			sh.weekFactor[0] *= 0.3 // quiet Sundays
			sh.weekFactor[6] *= 0.4
		}
		sh.maxPeak = sh.base + sh.amp
	case ClassNoPattern:
		sh.base = 8 + rng.Float64()*30
		sh.amp = 30 + rng.Float64()*40
		if busy {
			sh.amp = 55 + rng.Float64()*35
		}
		sh.burstSeed = rng.Int63()
		sh.maxPeak = sh.base + sh.amp
	}
	if class != ClassStable {
		if capacity {
			sh.amp = 100 - sh.base // saturates capacity at peak
			sh.maxPeak = 100
		} else if sh.base+sh.amp > 97 {
			// Only the explicitly chosen capacity sub-population may saturate
			// CPU; everyone else keeps ≥3 points of headroom (Figure 13(b)).
			sh.amp = 97 - sh.base
			sh.maxPeak = 97
		}
	}
	return sh
}

func (sh *shape) peak() float64 { return sh.maxPeak }

// at returns the load for slot of day. rng is only used for observation
// noise; all structural randomness is derived deterministically.
func (sh *shape) at(day, slot, ppd int, rng *rand.Rand) float64 {
	switch sh.class {
	case ClassStable:
		return sh.base + rng.NormFloat64()*sh.noise
	case ClassDaily:
		return sh.base + sh.amp*sh.bump(slot, ppd) + rng.NormFloat64()*sh.noise
	case ClassWeekly:
		dow := day % 7
		return sh.base + sh.amp*sh.weekFactor[dow]*sh.bump(slot, ppd) + rng.NormFloat64()*sh.noise
	default: // ClassNoPattern
		return sh.burstValue(day, slot, ppd) + rng.NormFloat64()*sh.noise
	}
}

// bump is a smooth plateau in [0,1] covering [bumpStart, bumpStart+bumpLen)
// with half-hour ramps, mimicking business-hours activity.
func (sh *shape) bump(slot, ppd int) float64 {
	ramp := ppd / 48 // 30 minutes
	if ramp == 0 {
		ramp = 1
	}
	pos := slot - sh.bumpStart
	if pos < 0 || pos >= sh.bumpLen {
		return 0
	}
	if pos < ramp {
		return float64(pos+1) / float64(ramp)
	}
	if pos >= sh.bumpLen-ramp {
		return float64(sh.bumpLen-pos) / float64(ramp)
	}
	return 1
}

// burstValue draws the no-pattern load: a mildly drifting base level plus
// two to five bursts at random times with random amplitudes. Bursts are
// biased toward waking hours (06:00–22:00) — human-triggered activity — so
// nights stay mostly, but not reliably, quiet: the class fails the daily and
// weekly pattern checks yet keeps realistic low-load valleys. The per-day
// PRNG makes the value a pure function of (day, slot); the day's layout is
// cached because callers scan slots sequentially.
func (sh *shape) burstValue(day, slot, ppd int) float64 {
	if sh.burstLevels == nil || sh.burstDay != day || len(sh.burstLevels) != ppd {
		if sh.dayRNG == nil {
			sh.dayRNG = rand.New(rand.NewSource(0))
		}
		drng := sh.dayRNG
		// Seed resets the retained source to exactly the state a fresh
		// NewSource(seed) would have, so the per-day stream is unchanged.
		drng.Seed(sh.burstSeed + int64(day)*31337)
		levels := sh.burstLevels
		if len(levels) != ppd {
			levels = make([]float64, ppd)
		}
		level := sh.base * (0.88 + drng.Float64()*0.24)
		for i := range levels {
			levels[i] = level
		}
		bursts := 2 + drng.Intn(4)
		dayStart, daySpan := ppd/4, 2*ppd/3 // 06:00 .. 22:00
		for b := 0; b < bursts; b++ {
			var start int
			if drng.Float64() < 0.8 {
				start = dayStart + drng.Intn(daySpan)
			} else {
				start = drng.Intn(ppd)
			}
			length := ppd/24 + drng.Intn(ppd/8+1)
			amp := sh.amp * (0.3 + drng.Float64()*0.7)
			for s := start; s < start+length && s < ppd; s++ {
				levels[s] += amp
			}
		}
		// Overlapping bursts must not pierce the server's peak envelope —
		// only the designated capacity sub-population reaches 100%.
		for s := range levels {
			if levels[s] > sh.maxPeak {
				levels[s] = sh.maxPeak
			}
		}
		sh.burstDay, sh.burstLevels = day, levels
	}
	return sh.burstLevels[slot]
}

// --- Appendix A: SQL databases (15-minute granularity) ---

// Database is one synthetic Azure SQL database (Appendix A.1).
type Database struct {
	ID   string
	Load timeseries.Series
	// StableByConstruction records whether the generator drew this database
	// from the stable sub-population; classification should approximately
	// recover it.
	StableByConstruction bool
}

// SQLConfig describes a SQL database population for the auto-scale scenario.
type SQLConfig struct {
	Databases int
	Days      int       // telemetry span in days
	Start     time.Time // zero means 2019-12-01 UTC
	// StableFraction of databases have stable load; the paper measured
	// 19.36% (Appendix A.1). Default 0.1936.
	StableFraction float64
	Seed           int64
}

func (c SQLConfig) withDefaults() SQLConfig {
	if c.Start.IsZero() {
		c.Start = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.StableFraction == 0 {
		c.StableFraction = 0.1936
	}
	if c.Days == 0 {
		c.Days = 28
	}
	return c
}

// GenerateSQL builds a deterministic SQL database population.
func GenerateSQL(cfg SQLConfig) []*Database {
	cfg = cfg.withDefaults()
	const interval = 15 * time.Minute
	ppd := int(24 * time.Hour / interval)
	out := make([]*Database, 0, cfg.Databases)
	for i := 0; i < cfg.Databases; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed*999_983 + int64(i)*104_729 + 5))
		stable := rng.Float64() < cfg.StableFraction
		n := cfg.Days * ppd
		vals := make([]float64, n)
		base := 5 + rng.Float64()*40
		if stable {
			noise := 0.5 + rng.Float64()*1.5
			for j := range vals {
				vals[j] = clamp(base+rng.NormFloat64()*noise, 0, 100)
			}
		} else {
			// Unstable: drifting level + daily seasonality + occasional jumps.
			amp := 10 + rng.Float64()*30
			drift := rng.NormFloat64() * 0.3
			level := base
			phase := rng.Float64() * 2 * math.Pi
			for j := range vals {
				if j%ppd == 0 {
					level += drift + rng.NormFloat64()*4
					if rng.Float64() < 0.15 {
						level += (rng.Float64() - 0.3) * 30
					}
					level = clamp(level, 2, 90)
				}
				season := amp * 0.5 * (1 + math.Sin(2*math.Pi*float64(j%ppd)/float64(ppd)+phase))
				vals[j] = clamp(level+season+rng.NormFloat64()*3, 0, 100)
			}
		}
		out = append(out, &Database{
			ID:                   fmt.Sprintf("sqldb-%06d", i),
			Load:                 timeseries.New(cfg.Start, interval, vals),
			StableByConstruction: stable,
		})
	}
	return out
}
