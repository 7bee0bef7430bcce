package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// span is one timed call across a layer boundary. Spans of one campaign
// share a Trace ID; on the fabric path the spans of one lease share the
// lease's ID instead.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one traced campaign in memory, together with
// the obs registry the program publishes its counters to. A nil *tracer
// is the untraced mode: every method is a no-op and reg() is nil, which
// turns the program's own instrumentation off.
type tracer struct {
	id       string // trace ID of the campaign's spans
	epoch    time.Time
	registry *obs.Registry
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(id string) *tracer {
	return &tracer{id: id, epoch: time.Now(), registry: obs.NewRegistry()}
}

// traceID is the ID shared by the campaign's spans.
func (t *tracer) traceID() string {
	if t == nil {
		return ""
	}
	return t.id
}

func (t *tracer) reg() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.registry
}

// begin opens a span; finish closes it. The open span is returned by
// value so concurrent callers share nothing until finish.
func (t *tracer) begin(trace, name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span that is already over.
func (t *tracer) add(trace, name string, parent int64, from, to time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: int64(from.Sub(t.epoch)), End: int64(to.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(trace, name string, parent int64, fn func() error) error {
	s := t.begin(trace, name, parent)
	err := fn()
	t.finish(s)
	return err
}

// named returns the closed spans whose name starts with prefix.
func (t *tracer) named(prefix string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans whose name starts with prefix.
func (t *tracer) total(prefix string) time.Duration {
	var d time.Duration
	for _, s := range t.named(prefix) {
		d += s.dur()
	}
	return d
}

// durations lists the durations of the spans whose name starts with
// prefix, in seconds.
func (t *tracer) durations(prefix string) []float64 {
	var out []float64
	for _, s := range t.named(prefix) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// writeJSONL writes every span as one JSON line to path, replacing the
// file's contents when truncate is set and appending otherwise.
func (t *tracer) writeJSONL(path string, truncate bool) error {
	mode := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if truncate {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counter reads one of the program's obs counters.
func (t *tracer) counter(name string) float64 {
	return float64(t.registry.Counter(name).Load())
}

// histogramQuantile estimates the q-quantile of an obs histogram by
// linear interpolation inside the bucket that holds it.
func (t *tracer) histogramQuantile(name string, q float64) float64 {
	h, ok := t.registry.Snapshot().Histograms[name]
	if !ok || h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i == len(h.Bounds) { // overflow bucket: no upper bound
			return lo
		}
		return lo + (h.Bounds[i]-lo)*(rank-seen)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// workerImbalance is max ÷ mean of the runner's per-worker experiment
// counts over `workers` runner workers.
func (t *tracer) workerImbalance(workers int) float64 {
	var total, most float64
	for w := 0; w < workers; w++ {
		n := t.counter(fmt.Sprintf("runner.worker.%d.experiments", w))
		total += n
		if n > most {
			most = n
		}
	}
	if total == 0 {
		return 0
	}
	return most / (total / float64(workers))
}

// timedSink wraps the production CSV sink and records a span per Put.
type timedSink struct {
	inner  runner.Sink
	tr     *tracer
	trace  string
	parent int64
}

func (s *timedSink) Put(res core.ExperimentResult) error {
	return s.tr.do(s.trace, "runner.CSVSink.Put", s.parent, func() error { return s.inner.Put(res) })
}

func (s *timedSink) Flush() error { return s.inner.Flush() }

// tracedHandler records a span per request around the service's handler,
// named after the endpoint.
func tracedHandler(h http.Handler, tr *tracer, trace string, parent int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := tr.begin(trace, "fabric.handler "+r.URL.Path, parent)
		h.ServeHTTP(w, r)
		tr.finish(s)
	})
}

// tracedTransport times each worker call from send to the end of its
// response body and counts the bytes on the wire both ways.
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	trace  string
	parent int64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.tr.begin(t.trace, "fabric.rtt "+req.URL.Path, t.parent)
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.finish(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

// countingBody closes its request's span when the worker closes the body.
type countingBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tr.finish(b.s) })
	return err
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
