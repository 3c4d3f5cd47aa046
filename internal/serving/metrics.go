package serving

import (
	"io"
	"net/http"

	"seagull/internal/obs"
)

// The /metrics endpoint renders the /varz document in the Prometheus text
// exposition format, so the JSON debug page and the scrape target can never
// disagree: each metric is declared once, as a `metric` struct tag beside
// the stats field both pages read (see obs.Expo.Struct).

// WriteMetrics renders the service's metrics in exposition format.
func (s *Service) WriteMetrics(w io.Writer) error {
	e := obs.NewExpo(w)
	e.Struct(s.VarzSnapshot())
	e.Struct(s.tracer.Metrics())
	return e.Flush()
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ExpoContentType)
	_ = s.WriteMetrics(w)
}
