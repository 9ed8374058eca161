package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// Field describes one column of a schema: a name and the kind its values
// are expected to have. Kind is advisory — individual cells may be null.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields. Field names are unique within a
// schema; lookups are case-sensitive.
type Schema []Field

// NewSchema builds a schema from (name, kind) pairs, validating uniqueness.
func NewSchema(fields ...Field) (Schema, error) {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("dataset: empty field name")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("dataset: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
	}
	return Schema(fields), nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(fields ...Field) Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named field, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the field names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// Equal reports whether two schemas have identical fields in order.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "name:kind, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Name + ":" + f.Kind.String()
	}
	return strings.Join(parts, ", ")
}

// Record is one row: a slice of values positionally aligned with a schema.
type Record []Value

// Clone returns a copy of the record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// Key concatenates the kind-tagged keys of the given column indexes,
// producing a map key for joins and grouping.
func (r Record) Key(cols ...int) string {
	var b strings.Builder
	for _, c := range cols {
		if c >= 0 && c < len(r) {
			b.WriteString(r[c].Key())
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Equal reports whether two records are value-wise equal.
func (r Record) Equal(s Record) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if !r[i].Equal(s[i]) {
			return false
		}
	}
	return true
}

// Table is an ordered multiset of records over a schema. The zero Table is
// empty with a nil schema. Tables are mutable; operations that transform a
// table return a new one and never alias record storage with the input.
type Table struct {
	schema Schema
	rows   []Record
}

// NewTable creates an empty table with the given schema.
func NewTable(schema Schema) *Table {
	return &Table{schema: schema}
}

// Schema returns the table's schema. Callers must not mutate it.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th record. Callers must not mutate it unless they own
// the table.
func (t *Table) Row(i int) Record { return t.rows[i] }

// Rows returns the underlying record slice. Callers must not mutate it
// unless they own the table.
func (t *Table) Rows() []Record { return t.rows }

// Append adds a record, padding or truncating to the schema arity so that
// every stored row has exactly len(schema) values.
func (t *Table) Append(r Record) {
	switch {
	case len(r) == len(t.schema):
	case len(r) < len(t.schema):
		padded := make(Record, len(t.schema))
		copy(padded, r)
		r = padded
	default:
		r = r[:len(t.schema)]
	}
	t.rows = append(t.rows, r)
}

// AppendValues is Append over a variadic value list.
func (t *Table) AppendValues(vals ...Value) { t.Append(Record(vals)) }

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{schema: t.schema.Clone(), rows: make([]Record, len(t.rows))}
	for i, r := range t.rows {
		out.rows[i] = r.Clone()
	}
	return out
}

// Get returns the value in row i, column name; null if the column is absent.
func (t *Table) Get(i int, name string) Value {
	c := t.schema.Index(name)
	if c < 0 || i < 0 || i >= len(t.rows) {
		return Null()
	}
	return t.rows[i][c]
}

// Set assigns the value in row i, column name, reporting success.
func (t *Table) Set(i int, name string, v Value) bool {
	c := t.schema.Index(name)
	if c < 0 || i < 0 || i >= len(t.rows) {
		return false
	}
	t.rows[i][c] = v
	return true
}

// ReplaceRow swaps row i's record for r, which must have the schema's
// arity, without writing through the old one — the copy-on-write step for
// tables whose records are shared with other tables: clone, replace, then
// mutate the clone.
func (t *Table) ReplaceRow(i int, r Record) { t.rows[i] = r }

// Project returns a new table containing only the named columns, in the
// given order. Unknown column names yield an error.
func (t *Table) Project(names ...string) (*Table, error) {
	idx := make([]int, len(names))
	schema := make(Schema, len(names))
	for i, n := range names {
		c := t.schema.Index(n)
		if c < 0 {
			return nil, fmt.Errorf("dataset: project: unknown column %q", n)
		}
		idx[i] = c
		schema[i] = t.schema[c]
	}
	out := NewTable(schema)
	for _, r := range t.rows {
		nr := make(Record, len(idx))
		for i, c := range idx {
			nr[i] = r[c]
		}
		out.rows = append(out.rows, nr)
	}
	return out, nil
}

// Select returns a new table with the rows for which pred returns true.
func (t *Table) Select(pred func(Record) bool) *Table {
	out := NewTable(t.schema.Clone())
	for _, r := range t.rows {
		if pred(r) {
			out.rows = append(out.rows, r.Clone())
		}
	}
	return out
}

// Rename returns a new table with column old renamed to new.
func (t *Table) Rename(oldName, newName string) (*Table, error) {
	c := t.schema.Index(oldName)
	if c < 0 {
		return nil, fmt.Errorf("dataset: rename: unknown column %q", oldName)
	}
	if t.schema.Index(newName) >= 0 {
		return nil, fmt.Errorf("dataset: rename: column %q already exists", newName)
	}
	out := t.Clone()
	out.schema[c].Name = newName
	return out, nil
}

// Sort orders rows by the named columns ascending (stable). Unknown columns
// are ignored.
func (t *Table) Sort(names ...string) {
	cols := make([]int, 0, len(names))
	for _, n := range names {
		if c := t.schema.Index(n); c >= 0 {
			cols = append(cols, c)
		}
	}
	sort.SliceStable(t.rows, func(i, j int) bool {
		for _, c := range cols {
			if cmp := t.rows[i][c].Compare(t.rows[j][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// Distinct returns a new table with duplicate rows (all columns equal)
// removed, keeping first occurrences in order.
func (t *Table) Distinct() *Table {
	out := NewTable(t.schema.Clone())
	seen := make(map[string]bool, len(t.rows))
	all := make([]int, len(t.schema))
	for i := range all {
		all[i] = i
	}
	for _, r := range t.rows {
		k := r.Key(all...)
		if !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, r.Clone())
		}
	}
	return out
}

// Union appends all rows of u (schemas must be arity-compatible) to a copy
// of t.
func (t *Table) Union(u *Table) (*Table, error) {
	if len(t.schema) != len(u.schema) {
		return nil, fmt.Errorf("dataset: union: arity mismatch %d vs %d", len(t.schema), len(u.schema))
	}
	out := t.Clone()
	for _, r := range u.rows {
		out.rows = append(out.rows, r.Clone())
	}
	return out, nil
}

// Join computes the inner equi-join of t and u on t.left = u.right using a
// hash join. Output schema is t's fields followed by u's fields, with u's
// colliding names suffixed "_r".
func (t *Table) Join(u *Table, left, right string) (*Table, error) {
	lc := t.schema.Index(left)
	rc := u.schema.Index(right)
	if lc < 0 {
		return nil, fmt.Errorf("dataset: join: unknown left column %q", left)
	}
	if rc < 0 {
		return nil, fmt.Errorf("dataset: join: unknown right column %q", right)
	}
	schema := t.schema.Clone()
	names := make(map[string]bool, len(schema))
	for _, f := range schema {
		names[f.Name] = true
	}
	for _, f := range u.schema {
		name := f.Name
		for names[name] {
			name += "_r"
		}
		names[name] = true
		schema = append(schema, Field{Name: name, Kind: f.Kind})
	}
	// Build hash on the smaller side conceptually; here build on u.
	index := make(map[string][]int)
	for i, r := range u.rows {
		if r[rc].IsNull() {
			continue // nulls never join
		}
		k := r[rc].Key()
		index[k] = append(index[k], i)
	}
	out := NewTable(schema)
	for _, r := range t.rows {
		if r[lc].IsNull() {
			continue
		}
		for _, ui := range index[r[lc].Key()] {
			nr := make(Record, 0, len(schema))
			nr = append(nr, r...)
			nr = append(nr, u.rows[ui]...)
			out.rows = append(out.rows, nr)
		}
	}
	return out, nil
}

// LeftJoin is Join but keeps unmatched left rows, padding right columns
// with nulls.
func (t *Table) LeftJoin(u *Table, left, right string) (*Table, error) {
	lc := t.schema.Index(left)
	rc := u.schema.Index(right)
	if lc < 0 || rc < 0 {
		return nil, fmt.Errorf("dataset: leftjoin: unknown column %q/%q", left, right)
	}
	joined, err := t.Join(u, left, right)
	if err != nil {
		return nil, err
	}
	index := make(map[string]bool)
	for _, r := range u.rows {
		if !r[rc].IsNull() {
			index[r[rc].Key()] = true
		}
	}
	for _, r := range t.rows {
		if r[lc].IsNull() || !index[r[lc].Key()] {
			nr := make(Record, 0, len(joined.schema))
			nr = append(nr, r.Clone()...)
			for range u.schema {
				nr = append(nr, Null())
			}
			joined.rows = append(joined.rows, nr)
		}
	}
	return joined, nil
}

// GroupCount groups by the named column and returns a (value, count) table
// sorted by descending count then ascending value.
func (t *Table) GroupCount(name string) (*Table, error) {
	c := t.schema.Index(name)
	if c < 0 {
		return nil, fmt.Errorf("dataset: groupcount: unknown column %q", name)
	}
	counts := make(map[string]int)
	rep := make(map[string]Value)
	for _, r := range t.rows {
		k := r[c].Key()
		counts[k]++
		if _, ok := rep[k]; !ok {
			rep[k] = r[c]
		}
	}
	out := NewTable(MustSchema(Field{Name: name, Kind: t.schema[c].Kind}, Field{Name: "count", Kind: KindInt}))
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		out.AppendValues(rep[k], Int(int64(counts[k])))
	}
	return out, nil
}

// Column returns all values of the named column in row order.
func (t *Table) Column(name string) ([]Value, error) {
	c := t.schema.Index(name)
	if c < 0 {
		return nil, fmt.Errorf("dataset: column: unknown column %q", name)
	}
	out := make([]Value, len(t.rows))
	for i, r := range t.rows {
		out[i] = r[c]
	}
	return out, nil
}

// String renders a compact preview of the table (schema plus up to 10 rows).
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table[%d rows](%s)", len(t.rows), t.schema.String())
	n := len(t.rows)
	if n > 10 {
		n = 10
	}
	for i := 0; i < n; i++ {
		parts := make([]string, len(t.rows[i]))
		for j, v := range t.rows[i] {
			parts[j] = v.String()
		}
		b.WriteString("\n  ")
		b.WriteString(strings.Join(parts, " | "))
	}
	if len(t.rows) > n {
		fmt.Fprintf(&b, "\n  … %d more", len(t.rows)-n)
	}
	return b.String()
}
