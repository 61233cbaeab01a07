package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of one request, as written to the trace file.
// Spans of a request share Req; Parent names the span that caused this one
// (empty for the request's root). Times are nanoseconds since the run's
// epoch.
type span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// tracer accumulates spans in memory; the workloads append from one
// goroutine after the run has quiesced (the hot paths record raw
// timestamps into their own buffers and are joined afterwards).
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(req, name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Req: req, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes derives, per span name, each span's duration minus the part of
// its interval its children cover (in µs). Children are the spans of the
// same request naming it as parent; overlapping children are merged so a
// shared interval is subtracted once.
func selfTimes(spans []span) map[string][]float64 {
	type key struct{ req, name string }
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		kids := children[key{s.Req, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}
