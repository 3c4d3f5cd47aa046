package forecast

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seagull/internal/timeseries"
)

// The digests pin the forecast every registry model deploys at its
// production configuration. They are a recording, not a derivation:
// regenerate them with -update only when a model's forecast changes on
// purpose.
var updateForecastGolden = flag.Bool("update", false, "rewrite testdata/predict_day.golden")

// goldenWeek is a fixed synthetic week of 5-minute load: a business-hours
// plateau, a slow weekly drift and seeded noise.
func goldenWeek() timeseries.Series {
	rng := rand.New(rand.NewSource(2718))
	vals := make([]float64, 7*288)
	for i := range vals {
		slot, day := i%288, i/288
		v := 15 + 2*float64(day)
		if slot >= 96 && slot < 204 {
			v += 40
		}
		v += 5*math.Sin(2*math.Pi*float64(slot)/288) + rng.NormFloat64()*3
		vals[i] = math.Min(math.Max(v, 0), 100)
	}
	return timeseries.New(time.Date(2019, 12, 2, 0, 0, 0, 0, time.UTC), 5*time.Minute, vals)
}

// forecastDigest hashes the exact bits of every forecast value.
func forecastDigest(s timeseries.Series) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range s.Values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPredictDayGolden requires PredictDay(New(name, seed), week) to be bit
// for bit what it was when the digests were recorded, for every model New
// builds.
func TestPredictDayGolden(t *testing.T) {
	names := []string{
		NamePersistentPrevDay, NamePersistentPrevWeek, NamePersistentWeekAvg,
		NameSSA, NameFFNN, NameAdditive, NameARIMA,
	}
	hist := goldenWeek()
	var got strings.Builder
	for _, name := range names {
		m, err := New(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := PredictDay(m, hist)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", name, forecastDigest(pred))
	}

	path := filepath.Join("testdata", "predict_day.golden")
	if *updateForecastGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("forecast digests drifted:\n got:\n%s want:\n%s", got.String(), want)
	}
}
