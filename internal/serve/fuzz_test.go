package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/detect"
	"repro/internal/relation"
)

// fuzzRels are the relations a fuzzed op can name: the three fixture
// relations and one the service does not know.
var fuzzRels = [...]string{"order", "book", "CD", "nosuch"}

// fuzzValue maps a byte to a cell value for an attribute of the given
// kind: mostly colliding titles, types and prices (so CFD groups and
// CIND matches form, and title updates move tuples across shards),
// with 0xFE a null and 0xFF a bool, which no attribute admits.
func fuzzValue(kind relation.Kind, b byte) relation.Value {
	switch {
	case b == 0xFF:
		return relation.Bool(true)
	case b == 0xFE:
		return relation.Null()
	case kind == relation.KindFloat:
		return relation.Float(5.99 + float64(b%4))
	}
	return relation.Str([...]string{"Book Title 0", "Book Title 1", "Book Title 2", "book", "CD", "vinyl"}[b%6])
}

// fuzzOps decodes fuzz bytes into at most 8 ops, 4 bytes per op:
//
//	b0: op kind (b0 % 4; 3 is no kind) and relation (b0 / 4 % 4)
//	b1: the TID a delete or update names
//	b2: the update position (b2 % 8 - 1, so -1 and 4..6 are out of
//	    range); an insert drops its last value when b2 % 8 == 7
//	b3: the update value, or the first insert value (the i-th is b3+i)
func fuzzOps(data []byte, schemas map[string]*relation.Schema) []detect.DBOp {
	var ops []detect.DBOp
	for ; len(data) >= 4 && len(ops) < 8; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		rel := fuzzRels[b0/4%4]
		arity, kindAt := 4, func(int) relation.Kind { return relation.KindString }
		if sch, ok := schemas[rel]; ok {
			arity, kindAt = sch.Arity(), func(p int) relation.Kind {
				if p < 0 || p >= sch.Arity() {
					return relation.KindString
				}
				return sch.Attr(p).Domain.Kind()
			}
		}
		op := detect.Op{Kind: detect.OpKind(b0 % 4), TID: relation.TID(b1)}
		switch op.Kind {
		case detect.OpInsert:
			if b2%8 == 7 {
				arity--
			}
			op.Tuple = make(relation.Tuple, arity)
			for i := range op.Tuple {
				op.Tuple[i] = fuzzValue(kindAt(i), b3+byte(i))
			}
		case detect.OpUpdate:
			op.Pos = int(b2%8) - 1
			op.Val = fuzzValue(kindAt(op.Pos), b3)
		}
		ops = append(ops, detect.DBOp{Rel: rel, Op: op})
	}
	return ops
}

// FuzzSubmit submits fuzzed batches to a one-shard and a two-shard
// service built once for the whole run, each receiving the same
// batches in the same order. Every Submit must end one of two ways:
// rejected with an *OpError, the published Seq and violations
// unchanged; or committed with a nil error, the violations equal to a
// fresh DetectBatch over the gathered shard snapshots. A request the
// validator accepts but the routing refuses would end a third way — an
// op error on a logged, applied batch — and break log-first commit.
// Both services must also publish the same violations.
//
// The services keep their state across inputs, so a failing input
// reproduces only after the inputs before it; the property holds in
// every state, so any failure is a real one.
func FuzzSubmit(f *testing.F) {
	cs := shardableServeSigma()
	db := ordersDB(5, 40) // 40 orders, 5 books, 4 CDs
	var svcs []*Service
	for _, shards := range []int{1, 2} {
		svc, err := New(Config{DB: db.Clone(), Constraints: cs, Engine: detect.New(1), Shards: shards})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { svc.Stop(context.Background()) })
		svcs = append(svcs, svc)
	}
	schemas := svcs[0].Schemas()

	// A valid batch, then one seed per OpError reason (the op ceiling
	// is oplog.MaxBatchOps, out of reach of 8 ops).
	f.Add([]byte{0, 0, 0, 0, 2, 3, 2, 1, 1, 5, 0, 0, 2, 40, 1, 3}) // insert, retitle, delete, update the insert
	f.Add([]byte{12, 0, 0, 0})                                     // unknown relation
	f.Add([]byte{0, 0, 7, 0})                                      // insert arity
	f.Add([]byte{0, 0, 0, 0xFF})                                   // insert value not in the domain
	f.Add([]byte{1, 3, 0, 0, 1, 3, 0, 0})                          // duplicate delete
	f.Add([]byte{1, 250, 0, 0})                                    // delete of a missing tuple
	f.Add([]byte{2, 0, 0, 0})                                      // update position out of range
	f.Add([]byte{2, 0, 2, 0xFF})                                   // update value not in the domain
	f.Add([]byte{2, 250, 2, 1})                                    // update of a missing tuple
	f.Add([]byte{3, 0, 0, 0})                                      // no op kind
	f.Add([]byte{6, 0, 2, 1, 6, 0, 2, 1})                          // book retitle: a cross-shard move

	ctx := context.Background()
	oracle := detect.New(1)
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data, schemas)
		for _, svc := range svcs {
			before := svc.State()
			res, err := svc.Submit(ctx, ops)
			var oe *OpError
			switch {
			case errors.As(err, &oe):
				after := svc.State()
				if res.Seq != before.Seq || after.Seq != before.Seq {
					t.Fatalf("shards=%d: rejected %v moved Seq %d -> %d (ack %d)", svc.Shards(), ops, before.Seq, after.Seq, res.Seq)
				}
				if !reflect.DeepEqual(after.Violations(), before.Violations()) {
					t.Fatalf("shards=%d: rejected %v changed the violations", svc.Shards(), ops)
				}
			case err != nil:
				t.Fatalf("shards=%d: Submit(%v) = %v: neither an OpError nor a clean commit", svc.Shards(), ops, err)
			default:
				st := svc.State()
				gathered, err := relation.GatherSnapshots(st.Shards)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := st.Violations(), oracle.DetectBatch(gathered, cs); !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: after %v the service holds %d violations, fresh detection %d", svc.Shards(), ops, len(got), len(want))
				}
			}
		}
		if !reflect.DeepEqual(svcs[0].Violations(), svcs[1].Violations()) {
			t.Fatalf("after %v the one-shard and two-shard services diverge", ops)
		}
	})
}
