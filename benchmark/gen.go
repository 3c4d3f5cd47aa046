package main

import (
	"fmt"
	"math"
	"time"

	"seagull"
)

// Every input is a pure function of the seed: the same seed gives the same
// fleets, histories, telemetry values and call order, byte for byte.

// benchMix is the class composition of every generated fleet. It has no
// short-lived servers, unlike the paper's population (Figure 3): a server
// that lives under three weeks gets no prediction, so with them the number
// of ops per call would swing by several percent from seed to seed and the
// ten-seed spread would measure the fleet lottery instead of the program.
var benchMix = seagull.Mix{Stable: 0.85, Daily: 0.05, Weekly: 0.05, NoPattern: 0.05}

// fleetEpoch is where generated telemetry starts: a Sunday, years before any
// wall clock the benchmark will run under, so no point is ever "too new".
var fleetEpoch = time.Date(2019, 12, 1, 0, 0, 0, 0, time.UTC)

const (
	slot         = 5 * time.Minute
	pointsPerDay = 288
)

// mix64 is the splitmix64 finalizer: a cheap, well-mixed hash for deriving
// independent streams from (seed, server, slot).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genFleet generates one region's fleet under the benchmark mix.
func genFleet(seed int64, region string, servers, weeks int) *seagull.Fleet {
	return seagull.GenerateFleet(seagull.FleetConfig{
		Region: region, Servers: servers, Weeks: weeks, Seed: seed, Mix: benchMix,
	})
}

// fleetHistories returns the IDs and the first `days` days of load of every
// server of a generated one-region fleet — the inline histories the predict
// workloads ship.
func fleetHistories(seed int64, servers, days int) ([]string, []seagull.Series) {
	fleet := genFleet(seed, "bench", servers, (days+6)/7)
	ids := make([]string, servers)
	hist := make([]seagull.Series, servers)
	for i, srv := range fleet.Servers {
		h, err := srv.Load().Slice(0, days*pointsPerDay)
		if err != nil {
			panic(fmt.Sprintf("benchmark: fleet server %s has no %d-day history: %v", srv.ID, days, err))
		}
		ids[i], hist[i] = srv.ID, h
	}
	return ids, hist
}

// telemetry is the live load of one server at one five-minute slot for the
// streaming workloads: a per-server level, a daily wave and bounded noise,
// rounded to the two decimals a CPU-percent gauge reports. Always in (0, 100).
func telemetry(seed int64, server int, slotIdx int64) float64 {
	s := mix64(uint64(seed)<<20 ^ uint64(server))
	level := 12 + float64(s%3000)/100
	phase := float64((s>>32)%pointsPerDay) / pointsPerDay
	wave := 8 * math.Sin(2*math.Pi*(float64(slotIdx%pointsPerDay)/pointsPerDay+phase))
	noise := float64(mix64(s^uint64(slotIdx))%400)/100 - 2
	return math.Round((level+wave+noise)*100) / 100
}

// streamServerID names the i-th server of the streaming fleet.
func streamServerID(i int) string { return fmt.Sprintf("live-srv-%06d", i) }
