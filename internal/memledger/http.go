package memledger

import (
	"encoding/json"
	"net/http"
	"time"
)

// memDump is the /debug/mem JSON schema (CI schema-checks it): the
// ledger snapshot inline, the ring-buffered timeline, and any
// per-device ledger snapshots.
type memDump struct {
	Snapshot
	Timeline memTimeline `json:"timeline"`
	Devices  []Snapshot  `json:"devices,omitempty"`
}

type memTimeline struct {
	Cap     int              `json:"cap"`
	Samples []TimelineSample `json:"samples"`
}

// Handler serves the ledger as GET /debug/mem. devices, when non-nil,
// is called per request to include per-device ledger snapshots (the
// pac-train device grid). ?format=chrome instead renders the timeline
// — main ledger plus devices — as Chrome trace counter events.
func Handler(l *Ledger, devices func() []*Ledger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var devs []*Ledger
		if devices != nil {
			devs = devices()
		}
		if r.URL.Query().Get("format") == "chrome" {
			evs := l.ChromeCounters(0, time.Time{})
			for i, d := range devs {
				evs = append(evs, d.ChromeCounters(1+i, time.Time{})...)
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(evs)
			return
		}
		// Snapshot under a fresh sample so a scrape always sees at least
		// one timeline point even before the sampler's first tick.
		l.Sample()
		d := memDump{
			Snapshot: l.Snapshot(),
			Timeline: memTimeline{
				Cap:     DefaultTimelineCap,
				Samples: l.Timeline(),
			},
		}
		if d.Timeline.Samples == nil {
			d.Timeline.Samples = []TimelineSample{}
		}
		for _, dev := range devs {
			d.Devices = append(d.Devices, dev.Snapshot())
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(d)
	})
}
