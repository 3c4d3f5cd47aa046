package pipeline

import (
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"time"

	"seagull/internal/extract"
	"seagull/internal/lake"
)

// A weekly run reads its region's current extract and up to HistoryWeeks
// earlier ones, and the region's next run reads most of those again. A
// Pipeline therefore keeps the weeks its runs parsed, keyed on (region, week,
// interval) and checked against the extract's size and CRC-32C: an earlier
// week whose bytes still hash to its kept sum is not parsed again. A week is
// parsed straight into int32 thousandths — the extract writes three
// decimals — wherever that form expands back to the same bits, so a kept
// week costs half of the float64 series it replaces and keeping it costs no
// second pass. A region keeps weeks from its second run on, and only those of
// [firstWeek, Week] of its latest run.

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

// weekServer is one server's load in one ingested week: its values in
// milli, as exact thousandths with Load.Values nil, wherever the parse could
// decode them so (extract.IngestCompact), and in Load.Values otherwise.
type weekServer struct {
	*extract.ServerLoad
	milli []int32
}

// points returns how many values the server has in the week.
func (s weekServer) points() int {
	if s.milli == nil {
		return s.Load.Len()
	}
	return len(s.milli)
}

// appendTo appends the server's values to dst.
func (s weekServer) appendTo(dst []float64) []float64 {
	if s.milli == nil {
		return append(dst, s.Load.Values...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(s.milli))[:n+len(s.milli)]
	for i, m := range s.milli {
		dst[n+i] = extract.ExpandMilli(m)
	}
	return dst
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

// readWeek ingests one week of a run. An earlier week with a kept entry
// whose extract still hashes to the entry's sum is served from it. Any other
// week is parsed from the same open file — the current one handing its rows to
// visit — straight into the form it is kept in and, when keep is set, kept
// under the size and CRC-32C of the bytes parsed.
func (p *Pipeline) readWeek(cfg Config, week int, kept *keptWeek, visit func(lake.Row), keep bool) (servers []weekServer, reused bool, err error) {
	r, err := p.Store.Reader(extract.Dataset, cfg.Region, week)
	if err != nil {
		return nil, false, err
	}
	defer r.Close()
	if kept != nil {
		sum, err := checksum(r)
		if err != nil {
			return nil, false, fmt.Errorf("pipeline: read %s week %d: %w", cfg.Region, week, err)
		}
		if sum == kept.sum {
			return kept.servers, true, nil
		}
		// The lake's extracts are files.
		if _, err := r.(io.Seeker).Seek(0, io.SeekStart); err != nil {
			return nil, false, fmt.Errorf("pipeline: rewind %s week %d: %w", cfg.Region, week, err)
		}
	}
	var sum extractSum
	src := io.Reader(r)
	if keep {
		src = io.TeeReader(r, &sum)
	}
	loads, milli, err := extract.IngestCompact(src, cfg.Region, week, cfg.Interval, visit)
	if err != nil {
		return nil, false, err
	}
	servers = make([]weekServer, len(loads))
	for i, sl := range loads {
		servers[i] = weekServer{ServerLoad: sl, milli: milli[i]}
	}
	if keep {
		p.weeks.put(weekKey{region: cfg.Region, week: week, interval: cfg.Interval}, &keptWeek{sum: sum, servers: servers})
	}
	return servers, false, nil
}
