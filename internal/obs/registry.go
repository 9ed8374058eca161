package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type series struct {
	sig string // rendered label signature: `k1="v1",k2="v2"` (may be empty)
	c   *Counter
	g   *Gauge
	h   *Histogram
}

type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histogram families: fixed at first registration
	series map[string]*series
	order  []string // sorted signatures, maintained on insert
}

// Registry is a named collection of metrics. Registration is
// get-or-create: the same (name, labels) pair always returns the same
// handle, so callers may re-resolve handles freely. All methods are
// safe for concurrent use; a nil *Registry returns nil handles, which
// are themselves safe no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter with the given name and label pairs
// (key, value, key, value, ...), creating it on first use. Nil on a nil
// registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.get(kindCounter, name, nil, labels)
	return s.c
}

// Gauge returns the gauge with the given name and label pairs, creating
// it on first use. Nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.get(kindGauge, name, nil, labels)
	return s.g
}

// Histogram returns the histogram with the given name and label pairs,
// creating it with the given bounds on first use. All series of one
// family share the bounds fixed at first registration. Nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.get(kindHistogram, name, bounds, labels)
	return s.h
}

// Help attaches exposition help text to a metric family. No-op on a nil
// registry or before any series of the family exists — call it after
// (or ignore; HELP lines are optional).
func (r *Registry) Help(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
	}
}

func (r *Registry) get(k kind, name string, bounds []float64, labels []string) *series {
	sig := labelSig(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, series: make(map[string]*series)}
		if k == kindHistogram {
			f.bounds = bounds
		}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	s, ok := f.series[sig]
	if !ok {
		s = &series{sig: sig}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = NewHistogram(f.bounds)
		}
		f.series[sig] = s
		i := sort.SearchStrings(f.order, sig)
		f.order = append(f.order, "")
		copy(f.order[i+1:], f.order[i:])
		f.order[i] = sig
	}
	return s
}

// labelSig renders label pairs as a canonical signature with keys
// sorted. Panics on an odd-length labels slice (programmer error).
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. Output ordering is deterministic: families sorted by name,
// series sorted by label signature — only the values vary between
// scrapes. Safe to call concurrently with metric writes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot family structure — help text and series, in order — under
	// the lock: a write that registers a new series inserts into the
	// family's map. The atomic values are read lock-free while rendering.
	fams := make([]*family, len(names))
	helps := make([]string, len(names))
	sers := make([][]*series, len(names))
	for i, name := range names {
		f := r.families[name]
		fams[i], helps[i] = f, f.help
		sers[i] = make([]*series, len(f.order))
		for j, sig := range f.order {
			sers[i][j] = f.series[sig]
		}
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		if helps[i] != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, helps[i])
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range sers[i] {
			sig := s.sig
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, "", sig, "", strconv.FormatInt(s.c.Value(), 10))
			case kindGauge:
				writeSample(&b, f.name, "", sig, "", formatFloat(s.g.Value()))
			case kindHistogram:
				var cum int64
				for bi, bound := range s.h.bounds {
					cum += s.h.counts[bi].Load()
					writeSample(&b, f.name, "_bucket", sig,
						`le="`+formatFloat(bound)+`"`, strconv.FormatInt(cum, 10))
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				writeSample(&b, f.name, "_bucket", sig, `le="+Inf"`, strconv.FormatInt(cum, 10))
				writeSample(&b, f.name, "_sum", sig, "", formatFloat(s.h.Sum()))
				writeSample(&b, f.name, "_count", sig, "", strconv.FormatInt(s.h.Count(), 10))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, suffix, sig, extra, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if sig != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if sig != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Summary returns the current counter and gauge values keyed by
// "name" or "name{labels}" — the compact form embedded in /healthz.
// Histograms are omitted (scrape /metrics for those). Nil-safe.
func (r *Registry) Summary() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for name, f := range r.families {
		if f.kind == kindHistogram {
			continue
		}
		for sig, s := range f.series {
			key := name
			if sig != "" {
				key = name + "{" + sig + "}"
			}
			switch f.kind {
			case kindCounter:
				out[key] = float64(s.c.Value())
			case kindGauge:
				out[key] = s.g.Value()
			}
		}
	}
	return out
}
