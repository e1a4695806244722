// Package relation implements the relational substrate the dependency
// framework is built on: typed values, domains, schemas, tuples, instances
// and databases, together with CSV import/export and hash indexes.
//
// The design follows Section 2 of Fan (PODS 2008): every attribute has an
// explicit domain dom(A), and whether that domain is finite matters for the
// static analyses of conditional dependencies (Example 4.1 of the paper).
// Instances additionally carry optional per-cell confidence weights, used by
// the Section 5.1 repair cost metric.
package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind so that the zero
// Value is a null.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lower-case name of the kind, matching the type names
// used in CSV headers and dependency files ("int", "string", ...).
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "real"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind converts a type name into a Kind. It accepts the names emitted
// by Kind.String plus the common aliases "float", "double", "text", "str".
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "bool", "boolean":
		return KindBool, nil
	case "int", "integer":
		return KindInt, nil
	case "real", "float", "double":
		return KindFloat, nil
	case "string", "str", "text":
		return KindString, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Value is an immutable typed database value. The zero Value is SQL-style
// null. Values are comparable with Equal and ordered with Compare; integers
// and floats compare numerically across kinds.
type Value struct {
	kind Kind
	i    int64   // bool (0/1) and int payload
	f    float64 // float payload
	s    string  // string payload
}

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a real (floating point) value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value. The name Str avoids clashing with the
// fmt.Stringer method.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// BoolVal returns the boolean payload; it is false unless Kind is KindBool.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.i != 0 }

// IntVal returns the integer payload; it is 0 unless Kind is KindInt.
func (v Value) IntVal() int64 {
	if v.kind == KindInt {
		return v.i
	}
	return 0
}

// FloatVal returns the numeric payload as a float64 for KindInt and
// KindFloat values, and 0 otherwise.
func (v Value) FloatVal() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		return 0
	}
}

// StrVal returns the string payload; it is "" unless Kind is KindString.
func (v Value) StrVal() string {
	if v.kind == KindString {
		return v.s
	}
	return ""
}

// numeric reports whether v holds a number.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports whether two values are equal. Nulls equal only nulls;
// numeric values compare numerically across int/float kinds, exactly:
// an int equals a float only when the float is integral and denotes
// that very int (beyond 2^53 a float64 cannot hold every int64, and a
// float compare would equate neighbours). Every NaN equals every NaN,
// so Equal is an equivalence, and it agrees with Key and with dictionary
// codes on every pair of values.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindBool, KindInt:
			return v.i == w.i
		case KindFloat:
			return v.f == w.f || (v.f != v.f && w.f != w.f)
		case KindString:
			return v.s == w.s
		}
	}
	if v.numeric() && w.numeric() {
		return canonicalValue(v) == canonicalValue(w)
	}
	return false
}

// Compare orders values: null < bool < numbers < strings, with numbers
// compared numerically across kinds. It returns -1, 0 or +1.
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
		return cmpInt64(v.i, w.i)
	case v.numeric():
		a, b := v.FloatVal(), w.FloatVal()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(v.s, w.s)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// rank buckets kinds for cross-kind ordering.
func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

// Less reports whether v orders strictly before w.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// Key returns a string that is equal for two values iff they are Equal.
// It is used as a map key when grouping tuples.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00n"
	case KindBool:
		if v.i != 0 {
			return "\x00t"
		}
		return "\x00f"
	case KindInt:
		return "\x00i" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		f := v.f
		if f == float64(int64(f)) {
			// Integral floats share keys with the equal integer value.
			return "\x00i" + strconv.FormatInt(int64(f), 10)
		}
		return "\x00r" + strconv.FormatFloat(f, 'g', -1, 64)
	default:
		return "\x00s" + v.s
	}
}

// AppendKey appends Key(v) to b and returns the extended slice — the
// allocation-free form probe loops use to build projection keys into a
// reused buffer instead of materializing a string per value.
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "\x00n"...)
	case KindBool:
		if v.i != 0 {
			return append(b, "\x00t"...)
		}
		return append(b, "\x00f"...)
	case KindInt:
		return strconv.AppendInt(append(b, "\x00i"...), v.i, 10)
	case KindFloat:
		f := v.f
		if f == float64(int64(f)) {
			// Integral floats share keys with the equal integer value.
			return strconv.AppendInt(append(b, "\x00i"...), int64(f), 10)
		}
		return strconv.AppendFloat(append(b, "\x00r"...), f, 'g', -1, 64)
	default:
		return append(append(b, "\x00s"...), v.s...)
	}
}

// String renders the value for display. Strings render verbatim; null
// renders as "⊥".
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥"
	case KindBool:
		return strconv.FormatBool(v.i != 0)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	default:
		return v.s
	}
}

// ParseValue parses text into a value of the given kind. Empty text parses
// to null for every kind.
func ParseValue(kind Kind, text string) (Value, error) {
	if text == "" {
		return Null(), nil
	}
	switch kind {
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse bool %q: %v", text, err)
		}
		return Bool(b), nil
	case KindInt:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse int %q: %v", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse real %q: %v", text, err)
		}
		return Float(f), nil
	case KindString:
		return Str(text), nil
	case KindNull:
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("relation: parse value of unknown kind %v", kind)
	}
}

// GuessValue parses text into the most specific kind that accepts it:
// int, then float, then bool, then string.
func GuessValue(text string) Value {
	if text == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return Float(f)
	}
	if b, err := strconv.ParseBool(text); err == nil {
		return Bool(b)
	}
	return Str(text)
}
