package sim

import "testing"

func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycles(i%97), func() {})
		e.Step()
	}
}

func BenchmarkEngineDeepQueue(b *testing.B) {
	e := NewEngine()
	r := NewRand(1)
	// Keep ~10K events in flight, the scale of a busy node.
	for i := 0; i < 10000; i++ {
		var reschedule func()
		reschedule = func() { e.Schedule(Cycles(r.Uint64n(100000)+1), reschedule) }
		e.Schedule(Cycles(r.Uint64n(100000)+1), reschedule)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkRandNormal(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(1000, 100)
	}
}

// BenchmarkStdNormals transforms 64 drawn pairs per op, the chunk the
// micro-fidelity fault path transforms at a time.
func BenchmarkStdNormals(b *testing.B) {
	var u1, u2, z [64]float64
	NewRand(1).FillNormalUniforms(u1[:], u2[:])
	for i := 0; i < b.N; i++ {
		StdNormals(z[:], u1[:], u2[:])
	}
}

func BenchmarkRandPareto(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Pareto(1e6, 1.15)
	}
}
