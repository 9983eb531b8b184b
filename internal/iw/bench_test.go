package iw_test

import (
	"sync"
	"testing"

	"fomodel/internal/iw"
	"fomodel/internal/trace"
	"fomodel/internal/workload"
)

var (
	benchTraceOnce sync.Once
	benchTraceVal  *trace.Trace
)

func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		t, err := workload.Generate("gzip", 50000, 1)
		if err != nil {
			panic(err)
		}
		benchTraceVal = t
	})
	return benchTraceVal
}

// BenchmarkCharacteristic times the full six-window IW sweep: one
// closed-form pass over the trace.
func BenchmarkCharacteristic(b *testing.B) {
	t := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iw.Characteristic(t, iw.DefaultWindows(), iw.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
