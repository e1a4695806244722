package cfd

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/relation"
)

// This file implements a line-oriented text format for CFDs, used by the
// command-line tools:
//
//	cfd customer: [CC, zip] -> [street]
//	  44, _ || _
//	cfd customer: [CC, AC, phn] -> [street, city, zip]
//	  44, 131, _ || _, EDI, _
//	  01, 908, _ || _, MH, _
//
// A "cfd <relation>: [X] -> [Y]" header starts a dependency; each
// following indented line is one pattern row with LHS and RHS cells
// separated by "||". Cells are "_" (wildcard) or constants parsed in the
// attribute's kind; string constants may be single-quoted to include
// commas. Blank lines and lines starting with '#' are ignored.

// Parse reads CFDs in the text format. Schemas are resolved by relation
// name through the schemas map.
func Parse(r io.Reader, schemas map[string]*relation.Schema) ([]*CFD, error) {
	sc := bufio.NewScanner(r)
	var out []*CFD
	var cur *CFD
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.HasPrefix(text, "cfd ") {
			c, err := parseHeader(text[4:], schemas)
			if err != nil {
				return nil, fmt.Errorf("cfd: line %d: %v", line, err)
			}
			out = append(out, c)
			cur = c
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("cfd: line %d: pattern row before any 'cfd' header", line)
		}
		row, err := parseRow(text, cur)
		if err != nil {
			return nil, fmt.Errorf("cfd: line %d: %v", line, err)
		}
		if err := cur.AddRow(row); err != nil {
			return nil, fmt.Errorf("cfd: line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, c := range out {
		if len(c.Tableau()) == 0 {
			return nil, fmt.Errorf("cfd: %s has an empty tableau", c)
		}
	}
	return out, nil
}

// ParseString is Parse over a string.
func ParseString(s string, schemas map[string]*relation.Schema) ([]*CFD, error) {
	return Parse(strings.NewReader(s), schemas)
}

func parseHeader(s string, schemas map[string]*relation.Schema) (*CFD, error) {
	relName, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("header %q: want '<relation>: [X] -> [Y]'", s)
	}
	relName = strings.TrimSpace(relName)
	schema, ok := schemas[relName]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", relName)
	}
	lhsPart, rhsPart, ok := strings.Cut(rest, "->")
	if !ok {
		return nil, fmt.Errorf("header %q: missing '->'", s)
	}
	lhs, err := parseAttrList(lhsPart)
	if err != nil {
		return nil, err
	}
	rhs, err := parseAttrList(rhsPart)
	if err != nil {
		return nil, err
	}
	return New(schema, lhs, rhs)
}

func parseAttrList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("attribute list %q: want [A, B, ...]", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, fmt.Errorf("empty attribute list")
	}
	parts := strings.Split(inner, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
		if out[i] == "" {
			return nil, fmt.Errorf("attribute list %q: empty attribute", s)
		}
	}
	return out, nil
}

func parseRow(s string, c *CFD) (PatternRow, error) {
	lhsPart, rhsPart, ok := strings.Cut(s, "||")
	if !ok {
		return PatternRow{}, fmt.Errorf("pattern row %q: missing '||'", s)
	}
	lhs, err := parseCells(lhsPart, c.Schema(), c.LHS())
	if err != nil {
		return PatternRow{}, err
	}
	rhs, err := parseCells(rhsPart, c.Schema(), c.RHS())
	if err != nil {
		return PatternRow{}, err
	}
	return PatternRow{LHS: lhs, RHS: rhs}, nil
}

// splitCells splits a comma-separated cell list honoring single quotes.
// Quote characters are preserved so that a quoted "_" is not mistaken for
// the wildcard; parseCells strips them.
func splitCells(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for _, r := range s {
		switch {
		case r == '\'':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	out = append(out, cur.String())
	return out
}

func parseCells(s string, schema *relation.Schema, pos []int) ([]Cell, error) {
	raw := splitCells(s)
	if len(raw) != len(pos) {
		return nil, fmt.Errorf("pattern %q: %d cells, want %d", strings.TrimSpace(s), len(raw), len(pos))
	}
	out := make([]Cell, len(raw))
	for i, cellText := range raw {
		cellText = strings.TrimSpace(cellText)
		if cellText == "_" {
			out[i] = Any()
			continue
		}
		if len(cellText) >= 2 && strings.HasPrefix(cellText, "'") && strings.HasSuffix(cellText, "'") {
			cellText = cellText[1 : len(cellText)-1]
		}
		kind := schema.Attr(pos[i]).Domain.Kind()
		v, err := relation.ParseValue(kind, cellText)
		if err != nil {
			return nil, fmt.Errorf("cell %q for %s: %v", cellText, schema.Attr(pos[i]).Name, err)
		}
		out[i] = Const(v)
	}
	return out, nil
}

// Format renders a CFD set in the Parse text format.
func Format(w io.Writer, set []*CFD) error {
	for _, c := range set {
		if _, err := fmt.Fprintf(w, "cfd %s: [%s] -> [%s]\n",
			c.Schema().Name(),
			strings.Join(c.LHSNames(), ", "),
			strings.Join(c.RHSNames(), ", ")); err != nil {
			return err
		}
		for _, row := range c.Tableau() {
			if _, err := fmt.Fprintf(w, "  %s || %s\n", formatCells(row.LHS, true), formatCells(row.RHS, false)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatCells renders one side of a pattern row; lead marks the LHS,
// whose first cell starts the line. Null is written as two single quotes
// (an empty constant), and a string Parse would misread bare is quoted.
func formatCells(cs []Cell, lead bool) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		v := c.Value()
		switch {
		case c.IsWildcard():
			parts[i] = "_"
		case v.IsNull():
			parts[i] = "''"
		case v.Kind() == relation.KindString && !readsBare(v.StrVal(), lead && i == 0):
			parts[i] = "'" + v.StrVal() + "'"
		default:
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, ", ")
}

// readsBare reports whether parseCells reads s, written unquoted, back as
// the string s: not the wildcard, not empty (Null), no surrounding space
// or quotes, no comma outside quotes, and, as the first cell of a line,
// neither a '#' comment nor a "cfd " header.
func readsBare(s string, first bool) bool {
	switch {
	case s == "_" || s != strings.TrimSpace(s):
		return false
	case len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'':
		return false
	case first && (strings.HasPrefix(s, "#") || strings.HasPrefix(s, "cfd ")):
		return false
	}
	return len(splitCells(s)) == 1
}
