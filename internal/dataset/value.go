// Package dataset provides the typed relational substrate shared by every
// wrangling component: values, schemas, records and tables, together with
// the relational operations (selection, projection, joins, grouping) and
// CSV/JSON codecs that the extraction, integration and quality layers build
// upon.
//
// The model is deliberately simple — a table is an ordered multiset of
// records over a flat schema — because the paper's working data (extracted
// tuples, matches, mappings, quality annotations, feedback) is uniformly
// representable as annotated relations (Furche et al., §4.2).
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the primitive value types supported by the dataset layer.
type Kind uint8

// The supported value kinds. KindNull represents an absent or unknown value
// and is distinct from the empty string or zero number.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is the null value.
// Values are small and passed by value throughout the library.
type Value struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
	t    time.Time
}

// Null returns the null value.
func Null() Value { return Value{} }

// String wraps a string as a Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int wraps an int64 as a Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float wraps a float64 as a Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool wraps a bool as a Value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Time wraps a time.Time as a Value.
func Time(t time.Time) Value { return Value{kind: KindTime, t: t} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload. It is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload. It is only meaningful for KindInt.
func (v Value) IntVal() int64 { return v.i }

// FloatVal returns the float payload. For KindInt it converts the integer.
func (v Value) FloatVal() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// BoolVal returns the boolean payload. It is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.b }

// TimeVal returns the time payload. It is only meaningful for KindTime.
func (v Value) TimeVal() time.Time { return v.t }

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display. Null renders as the empty string so
// that CSV round-trips preserve nullness via the schema, not sentinel text.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindTime:
		return v.t.UTC().Format(time.RFC3339)
	default:
		return ""
	}
}

// Equal reports deep equality of two values, including kind. Float equality
// is exact; use ApproxEqual for tolerance-based comparison.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == w.s
	case KindInt:
		return v.i == w.i
	case KindFloat:
		return v.f == w.f || (math.IsNaN(v.f) && math.IsNaN(w.f))
	case KindBool:
		return v.b == w.b
	case KindTime:
		return v.t.Equal(w.t)
	}
	return false
}

// Same reports whether two values are one value: Equal, and for floats
// the same sign bit too. 0 and -0 are Equal but print, and so normalise
// and fuse, differently. Same is the rule that decides a value unchanged.
func (v Value) Same(w Value) bool {
	return v.Equal(w) && (v.kind != KindFloat || math.Signbit(v.f) == math.Signbit(w.f))
}

// ApproxEqual reports equality with numeric tolerance eps; non-numeric
// values fall back to Equal. Int and float values compare cross-kind.
func (v Value) ApproxEqual(w Value, eps float64) bool {
	if v.IsNumeric() && w.IsNumeric() {
		return math.Abs(v.FloatVal()-w.FloatVal()) <= eps
	}
	return v.Equal(w)
}

// Compare orders two values: null < bool < int/float (numeric order) <
// string < time. It returns -1, 0 or +1. Cross-kind numeric comparison is
// by float value; otherwise kinds order first.
func (v Value) Compare(w Value) int {
	vr, wr := v.rank(), w.rank()
	if vr != wr {
		if vr < wr {
			return -1
		}
		return 1
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		switch {
		case v.b == w.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	case v.IsNumeric():
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	case v.kind == KindString:
		return strings.Compare(v.s, w.s)
	case v.kind == KindTime:
		switch {
		case v.t.Before(w.t):
			return -1
		case v.t.After(w.t):
			return 1
		default:
			return 0
		}
	}
	return 0
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindTime:
		return 4
	}
	return 5
}

// Key returns a string that uniquely identifies the value (kind-tagged), for
// use as a map key in joins, grouping and deduplication.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00"
	case KindString:
		return "s:" + v.s
	case KindInt:
		return "i:" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.b)
	case KindTime:
		return "t:" + strconv.FormatInt(v.t.UnixNano(), 10)
	}
	return "?"
}

// Coerce attempts to convert the value to the target kind, returning the
// converted value and whether conversion succeeded. Null coerces to null of
// any kind (reported as success); lossy numeric-to-int truncates.
func (v Value) Coerce(k Kind) (Value, bool) {
	if v.kind == k {
		return v, true
	}
	if v.kind == KindNull {
		return Null(), true
	}
	switch k {
	case KindString:
		return String(v.String()), true
	case KindInt:
		switch v.kind {
		case KindFloat:
			return Int(int64(v.f)), true
		case KindString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return Int(i), true
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return Int(int64(f)), true
			}
		case KindBool:
			if v.b {
				return Int(1), true
			}
			return Int(0), true
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return Float(float64(v.i)), true
		case KindString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return Float(f), true
			}
		case KindBool:
			if v.b {
				return Float(1), true
			}
			return Float(0), true
		}
	case KindBool:
		switch v.kind {
		case KindString:
			if b, err := strconv.ParseBool(strings.TrimSpace(v.s)); err == nil {
				return Bool(b), true
			}
		case KindInt:
			return Bool(v.i != 0), true
		}
	case KindTime:
		if v.kind == KindString {
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02", "02/01/2006", "01/02/2006"} {
				if t, err := time.Parse(layout, strings.TrimSpace(v.s)); err == nil {
					return Time(t), true
				}
			}
		}
	}
	return Null(), false
}

// Parse infers the most specific kind for a raw string: empty → null, then
// int, float, bool, RFC3339 time, finally string. It is the default typing
// rule used by the CSV codec and wrapper execution. Each parser is tried
// only where the first byte allows it to succeed — a failed parse
// allocates its error, and most cells are text: a number starts with a
// digit, a sign, a point or the i and n of inf, infinity and nan; a bool
// with a t or an f; an RFC3339 time with a digit.
func Parse(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" {
		return Null()
	}
	c := s[0]
	digit := '0' <= c && c <= '9'
	if digit || c == '+' || c == '-' {
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return Int(i)
		}
	}
	if digit || strings.IndexByte("+-.iInN", c) >= 0 {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Float(f)
		}
	}
	if strings.IndexByte("tTfF", c) >= 0 {
		switch strings.ToLower(s) {
		case "true":
			return Bool(true)
		case "false":
			return Bool(false)
		}
	}
	if digit {
		if t, err := time.Parse(time.RFC3339, s); err == nil {
			return Time(t)
		}
	}
	return String(raw)
}
