package dataset

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	now := time.Date(2016, 3, 15, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{String("x"), KindString},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Bool(true), KindBool},
		{Time(now), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if !Null().IsNull() || String("").IsNull() {
		t.Error("IsNull misclassifies")
	}
	if String("x").Str() != "x" || Int(42).IntVal() != 42 || Float(3.5).FloatVal() != 3.5 ||
		!Bool(true).BoolVal() || !Time(now).TimeVal().Equal(now) {
		t.Error("accessor mismatch")
	}
	if Int(7).FloatVal() != 7.0 {
		t.Error("FloatVal should widen ints")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{String("a b"), "a b"},
		{Int(-3), "-3"},
		{Float(2.5), "2.5"},
		{Bool(false), "false"},
		{Time(time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)), "2016-03-15T00:00:00Z"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(1).Equal(Int(1)) || Int(1).Equal(Int(2)) {
		t.Error("int equality wrong")
	}
	if Int(1).Equal(Float(1)) {
		t.Error("cross-kind Equal must be false")
	}
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN should equal NaN for storage identity")
	}
	if !Null().Equal(Null()) {
		t.Error("null equals null")
	}
}

func TestValueSame(t *testing.T) {
	zero, negZero := Float(0), Float(math.Copysign(0, -1))
	if !zero.Equal(negZero) || zero.Same(negZero) {
		t.Error("0 and -0 are Equal but not Same")
	}
	if zero.Key() == negZero.Key() {
		t.Error("0 and -0 must print differently, or Same buys nothing")
	}
	nan, negNaN := Float(math.NaN()), Float(math.Copysign(math.NaN(), -1))
	if !nan.Same(nan) || nan.Same(negNaN) {
		t.Error("NaN is Same as a NaN of its own sign only")
	}
	for _, v := range []Value{Null(), Int(1), Float(2.5), String("x"), Bool(true), Time(time.Unix(0, 0))} {
		if !v.Same(v) {
			t.Errorf("%v not Same as itself", v)
		}
	}
	if Int(0).Same(Float(0)) || String("a").Same(String("b")) {
		t.Error("values that are not Equal are not Same")
	}
	r := Record{String("a"), zero}
	if !r.Equal(Record{String("a"), negZero}) || r.Same(Record{String("a"), negZero}) || !r.Same(r.Clone()) {
		t.Error("Record.Same is Same in every column")
	}
	if r.Same(r[:1]) {
		t.Error("records of different widths are not Same")
	}
}

func TestValueApproxEqual(t *testing.T) {
	if !Int(10).ApproxEqual(Float(10.0001), 0.01) {
		t.Error("cross-kind numeric approx should hold")
	}
	if Float(1).ApproxEqual(Float(1.2), 0.1) {
		t.Error("outside tolerance should fail")
	}
	if !String("a").ApproxEqual(String("a"), 0) {
		t.Error("string approx falls back to Equal")
	}
}

func TestValueCompare(t *testing.T) {
	ordered := []Value{Null(), Bool(false), Bool(true), Int(-1), Float(0.5), Int(2), String("a"), String("b"), Time(time.Unix(0, 0)), Time(time.Unix(1, 0))}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestValueKeyUniqueness(t *testing.T) {
	vals := []Value{Null(), String("1"), Int(1), Float(1), Bool(true), String("true"), String(""), Time(time.Unix(1, 0))}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestValueCoerce(t *testing.T) {
	cases := []struct {
		in   Value
		to   Kind
		want Value
		ok   bool
	}{
		{String("42"), KindInt, Int(42), true},
		{String("4.5"), KindFloat, Float(4.5), true},
		{String("4.9"), KindInt, Int(4), true},
		{Float(3.7), KindInt, Int(3), true},
		{Int(5), KindFloat, Float(5), true},
		{Int(0), KindBool, Bool(false), true},
		{String("true"), KindBool, Bool(true), true},
		{String("nope"), KindInt, Null(), false},
		{Null(), KindInt, Null(), true},
		{Int(9), KindString, String("9"), true},
		{String("2016-03-15"), KindTime, Time(time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC)), true},
	}
	for _, c := range cases {
		got, ok := c.in.Coerce(c.to)
		if ok != c.ok || (ok && !got.Equal(c.want)) {
			t.Errorf("Coerce(%v,%v) = (%v,%v), want (%v,%v)", c.in, c.to, got, ok, c.want, c.ok)
		}
	}
}

func TestParseInference(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"   ", KindNull},
		{"12", KindInt},
		{"-3.5", KindFloat},
		{"true", KindBool},
		{"FALSE", KindBool},
		{"2016-03-15T10:00:00Z", KindTime},
		{"hello", KindString},
		{"12abc", KindString},
	}
	for _, c := range cases {
		if got := Parse(c.in).Kind(); got != c.kind {
			t.Errorf("Parse(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestParsePreservesRawString(t *testing.T) {
	if Parse(" padded ").Str() != " padded " {
		t.Error("string parse should keep raw text")
	}
}

// Property: Compare is antisymmetric and consistent with Equal for
// same-kind values.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return va.Compare(vb) == -vb.Compare(va) &&
			((va.Compare(vb) == 0) == va.Equal(vb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective over ints and strings.
func TestKeyInjectiveProperty(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return String(a).Key() == String(b).Key()
		}
		return String(a).Key() != String(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string round-trip through Parse∘String is identity for ints.
func TestIntRoundTripProperty(t *testing.T) {
	f := func(a int64) bool {
		return Parse(Int(a).String()).Equal(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
