// Package metrics is a tiny named-counter/gauge registry: the single
// source of truth for every statistic the stack maintains. Machines hold
// resolved *Counter pointers, so the hot path pays one atomic add per
// increment and zero allocations; consumers (the /stats endpoint,
// benchmarks, tests) read a consistent ordered snapshot by name.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Var is a readable metric value.
type Var interface {
	Value() int64
}

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.v.Add(d) }

// Count returns the current value.
func (c *Counter) Count() uint64 { return c.v.Load() }

// Value implements Var.
func (c *Counter) Value() int64 { return int64(c.v.Load()) }

// Gauge is a settable instantaneous metric. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value implements Var.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Func is a sampled gauge: its value is computed at read time (e.g. a
// queue depth). The function must be safe to call from any goroutine.
type Func func() int64

// Value implements Var.
func (f Func) Value() int64 { return f() }

// Registry is a namespace of metrics keyed by dotted names
// (e.g. "srp.tokens_received", "rrp.net0.tx_packets"). The zero value is
// not usable; construct with NewRegistry. Registration is get-or-create,
// so independent layers can resolve the same name to the same counter.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order
	vars  map[string]Var
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]Var)}
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if the name is already registered as a different type:
// that is a programming error, not a runtime condition.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		c, ok := v.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as %T, not Counter", name, v))
		}
		return c
	}
	c := new(Counter)
	r.register(name, c)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vars[name]; ok {
		g, ok := v.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as %T, not Gauge", name, v))
		}
		return g
	}
	g := new(Gauge)
	r.register(name, g)
	return g
}

// RegisterFunc registers a sampled gauge under name. Re-registering a
// name replaces the previous function (the last writer wins), which lets
// a restarted component re-bind its closures.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vars[name]; ok {
		r.vars[name] = Func(fn)
		return
	}
	r.register(name, Func(fn))
}

// register adds a new name; callers hold r.mu.
func (r *Registry) register(name string, v Var) {
	r.vars[name] = v
	r.names = append(r.names, name)
}

// Get returns the current value of the named metric.
func (r *Registry) Get(name string) (int64, bool) {
	r.mu.Lock()
	v, ok := r.vars[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	return v.Value(), true
}

// Sample is one (name, value) pair of a snapshot.
type Sample struct {
	Name  string
	Value int64
}

// Snapshot reads every metric and returns the samples sorted by name, so
// output is stable regardless of registration order.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	vars := make([]Var, len(names))
	for i, n := range names {
		vars[i] = r.vars[n]
	}
	r.mu.Unlock()
	out := make([]Sample, len(names))
	for i, n := range names {
		out[i] = Sample{Name: n, Value: vars[i].Value()}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as a single flat JSON object, one member
// per metric, sorted by name. Names are restricted to identifier-ish
// runes by convention but are quoted defensively anyway.
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.Snapshot()
	var buf []byte
	buf = append(buf, '{')
	for i, s := range samples {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n', ' ', ' ')
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ':', ' ')
		buf = strconv.AppendInt(buf, s.Value, 10)
	}
	if len(samples) > 0 {
		buf = append(buf, '\n')
	}
	buf = append(buf, '}', '\n')
	_, err := w.Write(buf)
	return err
}
