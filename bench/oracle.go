package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/relation"
	"repro/internal/serve"
)

// ruleSet is a workload's Σ parsed from the files under bench/rules,
// kept by class for the per-class layer metrics.
type ruleSet struct {
	cfds  []detect.Constraint
	cinds []detect.Constraint
	ecfds []detect.Constraint
}

// all returns Σ in the order dqserve and dqdetect assemble it: CFDs,
// CINDs, eCFDs, each in file order.
func (rs ruleSet) all() []detect.Constraint {
	out := append([]detect.Constraint(nil), rs.cfds...)
	out = append(out, rs.cinds...)
	return append(out, rs.ecfds...)
}

func schemasOf(db *relation.Database) map[string]*relation.Schema {
	out := map[string]*relation.Schema{}
	for _, name := range db.Names() {
		out[name] = db.MustInstance(name).Schema()
	}
	return out
}

func loadRules(e *env, rules map[string]string, schemas map[string]*relation.Schema) (ruleSet, error) {
	var rs ruleSet
	cfds, err := parseRuleFile(e, rules["-cfds"], schemas, cfd.Parse)
	if err != nil {
		return rs, err
	}
	cinds, err := parseRuleFile(e, rules["-cinds"], schemas, cind.Parse)
	if err != nil {
		return rs, err
	}
	ecfds, err := parseRuleFile(e, rules["-ecfds"], schemas, ecfd.Parse)
	if err != nil {
		return rs, err
	}
	rs.cfds, rs.cinds, rs.ecfds = detect.WrapCFDs(cfds), detect.WrapCINDs(cinds), detect.WrapECFDs(ecfds)
	return rs, nil
}

// parseRuleFile parses one file under bench/rules with its class's
// parser; no file, no rules.
func parseRuleFile[T any](e *env, name string, schemas map[string]*relation.Schema,
	parse func(io.Reader, map[string]*relation.Schema) ([]T, error)) ([]T, error) {
	if name == "" {
		return nil, nil
	}
	f, err := os.Open(filepath.Join(e.root, "bench", "rules", name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rules, err := parse(f, schemas)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rules, nil
}

// toDBOp converts a driver op into the library's op type.
func toDBOp(o op, schemas map[string]*relation.Schema) (detect.DBOp, error) {
	s := schemas[o.rel]
	switch o.kind {
	case 'i':
		t := make(relation.Tuple, len(o.tuple))
		for i, cell := range o.tuple {
			v, err := relation.ParseValue(s.Attr(i).Domain.Kind(), cell)
			if err != nil {
				return detect.DBOp{}, err
			}
			t[i] = v
		}
		return detect.InsertInto(o.rel, t), nil
	case 'd':
		return detect.DeleteFrom(o.rel, relation.TID(o.tid)), nil
	default:
		pos, ok := s.Lookup(o.attr)
		if !ok {
			return detect.DBOp{}, fmt.Errorf("no attribute %q in %s", o.attr, o.rel)
		}
		v, err := relation.ParseValue(s.Attr(pos).Domain.Kind(), o.val)
		if err != nil {
			return detect.DBOp{}, err
		}
		return detect.UpdateIn(o.rel, relation.TID(o.tid), pos, v), nil
	}
}

func toBatches(commits []commit, schemas map[string]*relation.Schema) ([][]detect.DBOp, error) {
	out := make([][]detect.DBOp, len(commits))
	for i, c := range commits {
		out[i] = make([]detect.DBOp, len(c.ops))
		for j, o := range c.ops {
			d, err := toDBOp(o, schemas)
			if err != nil {
				return nil, fmt.Errorf("commit %d op %d: %w", i, j, err)
			}
			out[i][j] = d
		}
	}
	return out, nil
}

// applyTo runs batches against a plain database the way the service
// does, without any monitor: the reference the server is checked
// against.
func applyTo(db *relation.Database, batches [][]detect.DBOp) error {
	for i, batch := range batches {
		for j, o := range batch {
			in := db.MustInstance(o.Rel)
			var err error
			switch o.Op.Kind {
			case detect.OpInsert:
				_, err = in.Insert(o.Op.Tuple)
			case detect.OpDelete:
				if !in.Delete(o.Op.TID) {
					err = fmt.Errorf("delete of absent TID %d", o.Op.TID)
				}
			case detect.OpUpdate:
				err = in.Update(o.Op.TID, o.Op.Pos, o.Op.Val)
			}
			if err != nil {
				return fmt.Errorf("shadow: commit %d op %d: %w", i, j, err)
			}
		}
	}
	return nil
}

// expectedText is what GET /violations?format=text must return for a
// database in the shadow's state: a fresh full detection, in canonical
// order.
func expectedText(shadow *relation.Database, cs []detect.Constraint) string {
	vs := (&detect.Engine{}).DetectBatch(shadow, cs)
	detect.SortViolations(vs, detect.SigmaOf(cs))
	return serve.ViolationsText(vs)
}

func fetchViolationsText(base string) (string, error) {
	resp, err := http.Get(base + "/violations?format=text")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /violations: status %d", resp.StatusCode)
	}
	return string(data), nil
}

// firstDiff describes where two reports part, for the mismatch error.
func firstDiff(want, got string) string {
	line := 1
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("first difference on line %d (want %d bytes, got %d)", line, len(want), len(got))
		}
		if want[i] == '\n' {
			line++
		}
	}
	return fmt.Sprintf("one report is a prefix of the other (want %d bytes, got %d)", len(want), len(got))
}
