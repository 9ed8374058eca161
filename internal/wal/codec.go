package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"repro/internal/dataset"
)

// The record payload codec: a compact little-endian binary encoding in
// which one function states a record's layout and runs in both
// directions. Every Codec method takes a pointer: encoding appends the
// pointed-to value, decoding overwrites it. Only the fixed-width and
// varint primitives and String read or write bytes — with Symbol and
// Repeat, which lay a string out as String does and only decode it
// differently; everything else is written once on top of them, so an
// encoder and its decoder cannot drift apart.
//
// Decoding keeps the offset/validation discipline of a careful binary
// parser — every read is bounds-checked before it happens, every failure
// names the absolute payload offset it occurred at, every length prefix
// is bounded before anything is allocated from it, and decoding never
// panics on arbitrary bytes (the FuzzWALReplay and FuzzDurableRecord
// contracts). Variable-length integers use the standard uvarint/zigzag
// forms; floats round-trip through math.Float64bits so NaN quality scores
// survive exactly; times encode as (unix seconds, nanoseconds) which
// round-trips time.Equal for every representable time, including the
// zero time.
//
// Encoding never writes through its pointers: records share memory with
// published versions that readers hold without a lock.

// maxLen bounds any length prefix inside a payload (strings, slices,
// tables). Payloads themselves are capped at MaxPayload by the framing
// layer; this inner bound just fails fast on garbage lengths before any
// allocation happens.
const maxLen = 1 << 28

// Codec encodes or decodes one record payload. The zero value encodes;
// Decode runs a code function in decode mode. Decode errors are sticky:
// the first failure (out-of-bounds read, invalid tag, implausible length)
// is retained with the absolute offset it occurred at, and every later
// read leaves its target at the zero value without advancing.
type Codec struct {
	buf  []byte
	off  int
	err  error
	dec  bool
	syms map[string]string // decoding: the one copy of each Symbol read so far

	// Decoding carves Symbols lists and records from these slabs: one
	// allocation for many small ones.
	strs []string
	vals []dataset.Value
}

// Encode runs code over v in encode mode and returns the payload.
func Encode[T any](v *T, code func(*Codec, *T)) []byte { return EncodeSized(0, v, code) }

// EncodeSized is Encode into a payload buffer presized to size bytes (0:
// none). A caller whose records of one kind keep a steady size passes a
// little more than the last one's length, so the buffer is allocated once
// instead of growing by doubling.
func EncodeSized[T any](size int, v *T, code func(*Codec, *T)) []byte {
	var c Codec
	if size > 0 {
		c.buf = make([]byte, 0, size)
	}
	code(&c, v)
	return c.buf
}

// Decode runs code over v in decode mode and checks that it consumed the
// payload exactly. Fields the code function does not state keep their
// value.
func Decode[T any](payload []byte, v *T, code func(*Codec, *T)) error {
	return DecodeAt(payload, 0, v, code)
}

// DecodePrefix runs code over the front of payload in decode mode and
// returns the offset where it stopped; unlike Decode, bytes after that
// are not an error. A record read in parts decodes its header this way
// and its body later with DecodeAt from the returned offset.
func DecodePrefix[T any](payload []byte, v *T, code func(*Codec, *T)) (int, error) {
	c := Codec{buf: payload, dec: true}
	code(&c, v)
	return c.off, c.err
}

// DecodeAt is Decode starting at offset off of payload: code reads from
// there to the exact end, and error offsets stay absolute.
func DecodeAt[T any](payload []byte, off int, v *T, code func(*Codec, *T)) error {
	if off < 0 || off > len(payload) {
		return fmt.Errorf("wal: offset 0x%x outside the %d-byte payload", off, len(payload))
	}
	c := Codec{buf: payload, off: off, dec: true}
	code(&c, v)
	return c.Done()
}

// Decoding reports whether the codec is reading a payload.
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first decode failure, or nil.
func (c *Codec) Err() error { return c.err }

// Done checks that the payload was consumed exactly: it returns the
// sticky error if any, or a trailing-bytes error if decoding stopped
// short of the end.
func (c *Codec) Done() error {
	if c.err != nil {
		return c.err
	}
	if c.dec && c.off != len(c.buf) {
		return fmt.Errorf("wal: offset 0x%x: %d trailing bytes after payload", c.off, len(c.buf)-c.off)
	}
	return nil
}

// Failf records a decode failure at the current offset (first one wins).
// Record code functions use it to reject semantically invalid payloads
// with the same offset discipline as the primitive reads.
func (c *Codec) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("wal: offset 0x%x: %s", c.off, fmt.Sprintf(format, args...))
	}
}

// take consumes the next n bytes, checking that they exist before any
// read touches them; nil once decoding has failed.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.buf)-c.off < n {
		c.Failf("truncated payload: need %d bytes, %d left", n, len(c.buf)-c.off)
		return nil
	}
	c.off += n
	return c.buf[c.off-n : c.off]
}

// U8 codes one byte.
func (c *Codec) U8(v *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	} else {
		*v = 0
	}
}

// U32 codes a fixed-width little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	} else {
		*v = 0
	}
}

// U64 codes a fixed-width little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	} else {
		*v = 0
	}
}

// Uvarint codes a variable-width unsigned integer.
func (c *Codec) Uvarint(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.Failf("bad uvarint")
		return
	}
	*v = x
	c.off += n
}

// Varint codes a variable-width signed integer (zigzag).
func (c *Codec) Varint(v *int64) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, *v)
		return
	}
	*v = 0
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.Failf("bad varint")
		return
	}
	*v = x
	c.off += n
}

// String codes a length-prefixed string.
func (c *Codec) String(s *string) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	n := 0
	c.Len(&n, 1)
	*s = string(c.take(n))
}

// Symbol codes a string exactly as String does, for a string drawn from a
// small vocabulary — ids and names that repeat across a payload. Decoding
// returns one shared copy per distinct value within the payload, instead
// of allocating every occurrence.
func (c *Codec) Symbol(s *string) {
	if !c.dec {
		c.String(s)
		return
	}
	n := 0
	c.Len(&n, 1)
	b := c.take(n)
	if v, ok := c.syms[string(b)]; ok {
		*s = v
		return
	}
	if c.syms == nil {
		c.syms = map[string]string{}
	}
	*s = string(b)
	c.syms[*s] = *s
}

// Repeat codes a string exactly as String does, for a string that comes
// in runs — the entity of consecutive results, say. Decoding returns prev
// itself when the string equals it, instead of allocating another copy.
func (c *Codec) Repeat(s *string, prev string) {
	if !c.dec {
		c.String(s)
		return
	}
	n := 0
	c.Len(&n, 1)
	if b := c.take(n); string(b) == prev {
		*s = prev
	} else {
		*s = string(b)
	}
}

// Symbols codes a slice of Symbols, laid out as Strings; decoding an empty
// one keeps the target's nil-ness, as Slice does.
func (c *Codec) Symbols(ss *[]string) {
	n := len(*ss)
	c.Len(&n, 1)
	if c.dec {
		*ss = (*ss)[:0]
		if n > 0 {
			*ss = carve(&c.strs, n)
		}
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.Symbol(&(*ss)[i])
	}
}

// carve returns the first n elements of *slab, capped at n, and moves
// *slab past them, refilling it first when it holds fewer than n.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, 1024))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// Len codes a length prefix. Decoding validates it against both the
// sanity bound and the bytes actually remaining (for minSize ≥ 1: the
// smallest encoding of one element), so a corrupt length can never drive
// a huge allocation.
func (c *Codec) Len(n *int, minSize int) {
	u := uint64(*n)
	c.Uvarint(&u)
	if !c.dec {
		return
	}
	*n = 0
	switch {
	case c.err != nil:
	case u > maxLen:
		c.Failf("implausible length %d", u)
	case minSize > 0 && int(u) > (len(c.buf)-c.off)/minSize:
		c.Failf("length %d exceeds remaining payload", u)
	default:
		*n = int(u)
	}
}

// Int codes an int as a Varint; decoding rejects values that overflow int.
func (c *Codec) Int(v *int) {
	x := int64(*v)
	c.Varint(&x)
	if c.dec {
		if int64(int(x)) != x {
			c.Failf("integer %d overflows int", x)
			x = 0
		}
		*v = int(x)
	}
}

// Bool codes a boolean as one byte; decoding rejects bytes other than 0
// and 1.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.dec {
		if b > 1 {
			c.Failf("invalid bool byte 0x%x", b)
		}
		*v = b == 1
	}
}

// F64 codes a float64 as its IEEE-754 bit pattern — NaN-exact.
func (c *Codec) F64(v *float64) {
	bits := math.Float64bits(*v)
	c.U64(&bits)
	if c.dec {
		*v = math.Float64frombits(bits)
	}
}

// Time codes a wall-clock time as (unix seconds, nanoseconds). Unlike
// UnixNano this is total over time.Time's range — the zero time and
// pre-1678 times round-trip time.Equal exactly.
func (c *Codec) Time(t *time.Time) {
	sec, nsec := t.Unix(), uint32(t.Nanosecond())
	c.Varint(&sec)
	c.U32(&nsec)
	if !c.dec {
		return
	}
	*t = time.Time{}
	if nsec >= 1e9 {
		c.Failf("invalid nanoseconds %d", nsec)
	} else if c.err == nil {
		*t = time.Unix(sec, int64(nsec))
	}
}

// Duration codes a time.Duration as its nanosecond count.
func (c *Codec) Duration(d *time.Duration) {
	x := int64(*d)
	c.Varint(&x)
	if c.dec {
		*d = time.Duration(x)
	}
}

// Value codes a dataset value: one kind byte plus the kind's payload.
func (c *Codec) Value(v *dataset.Value) {
	k := uint8(v.Kind())
	c.U8(&k)
	var out dataset.Value
	switch dataset.Kind(k) {
	case dataset.KindNull:
	case dataset.KindString:
		s := v.Str()
		c.String(&s)
		out = dataset.String(s)
	case dataset.KindInt:
		i := v.IntVal()
		c.Varint(&i)
		out = dataset.Int(i)
	case dataset.KindFloat:
		f := v.FloatVal()
		c.F64(&f)
		out = dataset.Float(f)
	case dataset.KindBool:
		b := v.BoolVal()
		c.Bool(&b)
		out = dataset.Bool(b)
	case dataset.KindTime:
		t := v.TimeVal()
		c.Time(&t)
		out = dataset.Time(t)
	default:
		c.Failf("invalid value kind 0x%x", k)
	}
	if c.dec {
		*v = out
	}
}

// Record codes a dataset record of the given width (fixed by the
// enclosing schema; no per-record width is written).
func (c *Codec) Record(r *dataset.Record, width int) {
	if c.dec {
		*r = nil
		if width < 0 || width > maxLen {
			c.Failf("implausible record width %d", width)
			return
		}
		*r = carve(&c.vals, width)
	}
	for i := range *r {
		c.Value(&(*r)[i])
	}
}

// Schema codes a dataset schema: field count, then (name, kind) pairs.
// Decoding validates every field kind.
func (c *Codec) Schema(s *dataset.Schema) {
	if c.dec {
		*s = dataset.Schema{}
	}
	Slice(c, (*[]dataset.Field)(s), 2, func(c *Codec, f *dataset.Field) { // name length + kind byte
		c.String(&f.Name)
		k := uint8(f.Kind)
		c.U8(&k)
		if c.dec {
			if dataset.Kind(k) > dataset.KindTime {
				c.Failf("invalid field kind 0x%x", k)
			}
			f.Kind = dataset.Kind(k)
		}
	})
}

// Table codes a full table: schema, row count, then each row's values in
// schema order.
func (c *Codec) Table(t **dataset.Table) {
	var schema dataset.Schema
	var rows []dataset.Record
	if !c.dec {
		schema, rows = (*t).Schema(), (*t).Rows()
	}
	c.Schema(&schema)
	width := len(schema)
	// ≥ 1 byte per value; a zero-width row still counts one byte so that
	// the row count stays bounded by the payload.
	Slice(c, &rows, max(width, 1), func(c *Codec, r *dataset.Record) { c.Record(r, width) })
	if !c.dec {
		return
	}
	*t = nil
	if c.err != nil {
		return
	}
	tab := dataset.NewTable(schema)
	for _, r := range rows {
		tab.Append(r)
	}
	*t = tab
}

// Strings codes a length-prefixed string slice (nil when empty, matching
// how the in-memory structures leave empty slices).
func (c *Codec) Strings(ss *[]string) { Slice(c, ss, 1, (*Codec).String) }

// Slice codes a length-prefixed slice, each element with elem. minSize is
// the smallest encoding of one element, which bounds the decoded length
// by the bytes left. Decoding an empty slice keeps the target's nil-ness:
// a code function whose readers tell empty from nil starts from an empty
// slice.
func Slice[T any](c *Codec, s *[]T, minSize int, elem func(*Codec, *T)) {
	n := len(*s)
	c.Len(&n, minSize)
	if c.dec {
		if n == 0 {
			*s = (*s)[:0]
			return
		}
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// Map codes a length-prefixed map as (key, value) pairs, keys sorted on
// encode so equal maps encode to equal bytes. minSize bounds the decoded
// length as in Slice, and decoding an empty map keeps the target's
// nil-ness the same way.
func Map[K cmp.Ordered, V any](c *Codec, m *map[K]V, minSize int, key func(*Codec, *K), val func(*Codec, *V)) {
	var keys []K
	var vals []V
	if !c.dec {
		keys = slices.Sorted(maps.Keys(*m))
		vals = make([]V, len(keys))
		for i, k := range keys {
			vals[i] = (*m)[k]
		}
	}
	n := len(keys)
	c.Len(&n, minSize)
	if c.dec {
		if n == 0 {
			clear(*m)
			return
		}
		keys, vals = make([]K, n), make([]V, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		key(c, &keys[i])
		val(c, &vals[i])
	}
	if c.dec {
		*m = make(map[K]V, n)
		for i, k := range keys {
			(*m)[k] = vals[i]
		}
	}
}

// Opt codes an optional value behind a presence flag: false for a nil
// pointer, or true followed by the value.
func Opt[T any](c *Codec, p **T, code func(*Codec, *T)) {
	ok := *p != nil
	c.Bool(&ok)
	if c.dec {
		*p = nil
		if ok {
			*p = new(T)
		}
	}
	if ok {
		code(c, *p)
	}
}
