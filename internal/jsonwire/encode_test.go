package jsonwire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestFloatMatchesEncodingJSON: Float writes json.Marshal's bytes for every
// float it is given: both sides of the exponent-form switches, short
// decimals and their neighbours one ulp away, and arbitrary values.
func TestFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			return
		}
		e := Get()
		defer Put(e)
		if e.Float(f); string(e.Buf) != string(want) || e.Err != nil {
			t.Fatalf("Float(%v) wrote %s (%v), encoding/json writes %s", f, e.Buf, e.Err, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 0.01, -0.01, 0.005, 0.015, 0.1, 0.61, 5123.45, 220, 4.506938e+06,
		1e12, math.Nextafter(1e12, 0), 999999999999.99, 1e-6, 1e21, 1e20, 123456789.12, 0.3, 0.7,
		math.MaxFloat64, 5e-324, 1.0 / 3, 2.675, 1.005, 0.285, 1e11 + 0.01, 1e-2 - 1e-17,
	} {
		check(f)
		check(-f)
		check(math.Nextafter(f, math.Inf(1)))
		check(math.Nextafter(f, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 20000; i++ {
		c := rng.Int63n(1 << uint(1+rng.Intn(50)))
		f := float64(c) / 100
		check(f)
		check(-f)
		check(math.Nextafter(f, math.Inf(1)))
		check(f * 3.7)
		check(math.Float64frombits(rng.Uint64()))
	}
}
