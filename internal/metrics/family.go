package metrics

import (
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Key is the label set of a Family: a comparable value (typically a
// small struct) that renders its own exposition labels and orders itself
// for a deterministic scrape. Rendering happens only at scrape time, so
// the counting path never formats a label.
type Key[K any] interface {
	comparable
	// Labels renders the key as the text between a sample's braces,
	// e.g. `path="/v1/predict",code="200"`.
	Labels() string
	// Compare orders keys for exposition: negative when the receiver
	// sorts before other, zero when equal, positive otherwise.
	Compare(other K) int
}

// Family is a set of counters keyed by a label set, created on first
// use. The zero value is ready to use; all methods are safe for
// concurrent use and no-ops (or zero) on a nil family.
type Family[K Key[K]] struct {
	mu sync.Mutex
	m  map[K]*Counter
}

// Get returns k's live counter, creating it on first use: one map
// lookup under the family's mutex, and no allocation once k exists.
// Nil on a nil family (and a nil *Counter ignores Inc).
func (f *Family[K]) Get(k K) *Counter {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.m[k]
	if c == nil {
		if f.m == nil {
			f.m = make(map[K]*Counter)
		}
		c = &Counter{}
		f.m[k] = c
	}
	return c
}

// Delete drops k's series, so a label value that no longer exists (a
// deleted workload, say) stops being exported. A counter obtained
// before the delete keeps counting but is no longer scraped.
func (f *Family[K]) Delete(k K) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.m, k)
}

// Samples returns every series in Compare order, labels rendered.
func (f *Family[K]) Samples() []Sample {
	if f == nil {
		return nil
	}
	type entry struct {
		k K
		c *Counter
	}
	f.mu.Lock()
	entries := make([]entry, 0, len(f.m))
	for k, c := range f.m {
		entries = append(entries, entry{k, c})
	}
	f.mu.Unlock()
	slices.SortFunc(entries, func(a, b entry) int { return a.k.Compare(b.k) })
	out := make([]Sample, len(entries))
	for i, e := range entries {
		out[i] = Sample{Labels: e.k.Labels(), Value: e.c.Load()}
	}
	return out
}

// Sample is one labelled series of a metric: its label text (without
// braces) and its value.
type Sample struct {
	Labels string
	Value  int64
}

// Label renders one name="value" label pair, the value quoted as Go
// quotes strings (which the exposition format accepts).
func Label(name, value string) string {
	return name + "=" + strconv.Quote(value)
}

// RequestKey labels the requests-served counter of both serving
// binaries: the route pattern and the response status code.
type RequestKey struct {
	Path string
	Code int
}

// Labels implements Key.
func (k RequestKey) Labels() string {
	return Label("path", k.Path) + "," + Label("code", strconv.Itoa(k.Code))
}

// Compare implements Key: by path, then by numeric status code.
func (k RequestKey) Compare(o RequestKey) int {
	if c := strings.Compare(k.Path, o.Path); c != 0 {
		return c
	}
	return k.Code - o.Code
}
