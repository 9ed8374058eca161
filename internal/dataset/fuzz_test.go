package dataset

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseOracle is Parse as it was before it gated each parser on the first
// byte: every parser tried in turn.
func parseOracle(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(s) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return Time(t)
	}
	return String(raw)
}

// FuzzParse pins Parse to parseOracle: the same kind and the same value,
// a float's bits included, on every string — numbers in every form
// ParseFloat takes (a sign, a leading point, exponents, hex mantissas,
// underscores, inf, infinity and nan in any case), bools in any case,
// RFC3339 times and text that starts like any of them.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", " ", "0", "-0", "+7", "042", "9223372036854775808", "-9223372036854775809",
		"1.5", ".5", "-.5", "+.5e3", "1e309", "1_000", "0x1p-2", "0X1.8P3", "0x_1p0", "0x10",
		"inf", "+Inf", "-INFINITY", "infinit", "nan", "NaN", "-nan", "+nan", "nAn ",
		"true", "TRUE", " False ", "t", "tru", "falſe", "yes",
		"2016-03-15T10:00:00Z", "2016-03-15T10:00:00+02:00", "2016-03-15", "2016-03-15T10:00:00.123456789Z",
		"Acme Corp", "€12", "_1", "\t12\n", "1,5", "12 kg",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, want := Parse(raw), parseOracle(raw)
		same := reflect.DeepEqual(got, want)
		if got.Kind() == KindFloat && want.Kind() == KindFloat {
			same = math.Float64bits(got.FloatVal()) == math.Float64bits(want.FloatVal())
		}
		if !same {
			t.Fatalf("Parse(%q) = %#v, the oracle %#v", raw, got, want)
		}
	})
}
