package pipeline

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"seagull/internal/extract"
	"seagull/internal/lake"
	"seagull/internal/timeseries"
)

// A weekly run reads its region's current extract and up to HistoryWeeks
// earlier ones, and the region's next run reads most of those again. A
// Pipeline therefore keeps the weeks its runs parsed, keyed on (region, week,
// interval) and checked against the extract's size and CRC-32C: an earlier
// week whose bytes still hash to its kept sum is not parsed again. The values
// are kept as int32 thousandths — the extract writes three decimals —
// wherever that form expands back to the same bits, so a kept week costs half
// of the float64 series it replaces. A region keeps weeks from its second run
// on, and only those of [firstWeek, Week] of its latest run.

// weekKey names a kept week.
type weekKey struct {
	region   string
	week     int
	interval time.Duration
}

// extractSum is an extract's size and CRC-32C, fed by Write.
type extractSum struct {
	size int64
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *extractSum) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.size += int64(len(p))
	return len(p), nil
}

// readBufs holds the buffers checksum reads extracts through.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// checksum reads r to its end and returns its size and CRC-32C.
func checksum(r io.Reader) (extractSum, error) {
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	var sum extractSum
	// Hiding the file's WriteTo makes CopyBuffer read through the buffer.
	_, err := io.CopyBuffer(&sum, struct{ io.Reader }{r}, *bp)
	return sum, err
}

// weekServer is one server's load in one ingested week. A kept week holds
// its values in milli, as exact thousandths, and leaves Load.Values nil; a
// parsed week, or a kept server with a value milli cannot hold, has milli nil.
type weekServer struct {
	*extract.ServerLoad
	milli []int32
}

// appendTo appends the server's values to dst.
func (s weekServer) appendTo(dst []float64) []float64 {
	if s.milli == nil {
		return append(dst, s.Load.Values...)
	}
	for _, m := range s.milli {
		dst = append(dst, expandMilli(m))
	}
	return dst
}

// missingMilli stands for timeseries.Missing; no value compacts to it.
const missingMilli = math.MinInt32

func expandMilli(m int32) float64 {
	if m == missingMilli {
		return timeseries.Missing
	}
	return float64(m) / 1000
}

// compactValues returns vals as thousandths, or false when some value does
// not expand back to its own bits: more than three decimals, -0, a NaN other
// than Missing, an infinity, or a magnitude of 2³¹/1000 or more.
func compactValues(vals []float64) ([]int32, bool) {
	milli := make([]int32, len(vals))
	missing := math.Float64bits(timeseries.Missing)
	for i, v := range vals {
		bits := math.Float64bits(v)
		if bits == missing {
			milli[i] = missingMilli
			continue
		}
		r := math.Round(v * 1000)
		if !(r > missingMilli && r <= math.MaxInt32) {
			return nil, false
		}
		m := int32(r)
		if math.Float64bits(expandMilli(m)) != bits {
			return nil, false
		}
		milli[i] = m
	}
	return milli, true
}

// compactWeek returns a parsed week in the form it is kept in.
func compactWeek(loads []*extract.ServerLoad) []weekServer {
	kept := make([]extract.ServerLoad, len(loads))
	out := make([]weekServer, len(loads))
	for i, sl := range loads {
		kept[i] = *sl
		if milli, ok := compactValues(sl.Load.Values); ok {
			kept[i].Load.Values, out[i].milli = nil, milli
		}
		out[i].ServerLoad = &kept[i]
	}
	return out
}

// keptWeek is one earlier week as a Pipeline keeps it.
type keptWeek struct {
	sum     extractSum
	servers []weekServer
}

// weekCache is a Pipeline's kept weeks. Concurrent runs of one region may
// evict each other's weeks, which only costs a parse.
type weekCache struct {
	mu    sync.Mutex
	ran   map[string]bool // the regions that have run
	weeks map[weekKey]*keptWeek
}

// begin records a run of region and reports whether the region ran before,
// which is when the run keeps the weeks it parses.
func (c *weekCache) begin(region string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ran == nil {
		c.ran, c.weeks = map[string]bool{}, map[weekKey]*keptWeek{}
	}
	ran := c.ran[region]
	c.ran[region] = true
	return ran
}

func (c *weekCache) get(k weekKey) *keptWeek {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weeks[k]
}

func (c *weekCache) put(k weekKey, w *keptWeek) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.weeks[k] = w
}

// retain drops region's weeks outside [first, last] or at another interval.
func (c *weekCache) retain(region string, interval time.Duration, first, last int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.weeks {
		if k.region == region && (k.interval != interval || k.week < first || k.week > last) {
			delete(c.weeks, k)
		}
	}
}

// ingestedWeek is one week of a run: servers always, loads when it was
// parsed, reused when it came from the cache.
type ingestedWeek struct {
	servers []weekServer
	loads   []*extract.ServerLoad
	reused  bool
}

// readWeek ingests one week of a run. An earlier week whose extract hashes
// to the sum it was kept under is served from the cache. Any other week is parsed from
// the same open file — the current one handing its rows to visit — and,
// when keep is set, kept under the size and CRC-32C of the bytes parsed.
func (p *Pipeline) readWeek(cfg Config, week int, visit func(lake.Row), keep bool) (ingestedWeek, error) {
	r, err := p.Store.Reader(extract.Dataset, cfg.Region, week)
	if err != nil {
		return ingestedWeek{}, err
	}
	defer r.Close()
	k := weekKey{region: cfg.Region, week: week, interval: cfg.Interval}
	if week != cfg.Week {
		if kept := p.weeks.get(k); kept != nil {
			sum, err := checksum(r)
			if err != nil {
				return ingestedWeek{}, fmt.Errorf("pipeline: read %s week %d: %w", cfg.Region, week, err)
			}
			if sum == kept.sum {
				return ingestedWeek{servers: kept.servers, reused: true}, nil
			}
			// The lake's extracts are files.
			if _, err := r.(io.Seeker).Seek(0, io.SeekStart); err != nil {
				return ingestedWeek{}, fmt.Errorf("pipeline: rewind %s week %d: %w", cfg.Region, week, err)
			}
		}
	}
	var sum extractSum
	src := io.Reader(r)
	if keep {
		src = io.TeeReader(r, &sum)
	}
	loads, err := extract.IngestReader(src, cfg.Region, week, cfg.Interval, visit)
	if err != nil {
		return ingestedWeek{}, err
	}
	if keep {
		p.weeks.put(k, &keptWeek{sum: sum, servers: compactWeek(loads)})
	}
	servers := make([]weekServer, len(loads))
	for i, sl := range loads {
		servers[i].ServerLoad = sl
	}
	return ingestedWeek{servers: servers, loads: loads}, nil
}
