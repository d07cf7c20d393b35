package core

import (
	"math/rand/v2"
	"sort"
	"testing"

	"ocb/internal/backend"
	"ocb/internal/lewis"
)

func genericSmall() Params {
	p := GenericParams()
	p.NO = 400
	p.SupRef = 400
	p.NC = 5
	p.SupClass = 5
	p.BufferPages = 16
	p.ColdN = 30
	p.HotN = 60
	return p
}

func TestGenericParamsValidate(t *testing.T) {
	p := GenericParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := p.PSet + p.PSimple + p.PHier + p.PStoch +
		p.PUpdate + p.PInsert + p.PDelete + p.PScan + p.PRange
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestInsertObjectMaintainsInvariants(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	src := lewis.New(99)
	before := db.NumLive()
	obj, err := db.InsertObject(src)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumLive() != before+1 {
		t.Fatalf("live = %d, want %d", db.NumLive(), before+1)
	}
	if obj.OID != backend.OID(p.NO+1) {
		t.Fatalf("new OID = %d", obj.OID)
	}
	if obj.Class < 1 || obj.Class > p.NC {
		t.Fatalf("new class = %d", obj.Class)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteObjectRepairsGraph(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	// Pick a victim with both in- and out-links.
	var victim backend.OID
	for i := 1; i <= p.NO; i++ {
		obj := db.Objects[i]
		if len(obj.BackRef) > 0 {
			for _, r := range obj.ORef {
				if r != backend.NilOID {
					victim = obj.OID
					break
				}
			}
		}
		if victim != backend.NilOID {
			break
		}
	}
	if victim == backend.NilOID {
		t.Skip("no suitable victim")
	}
	referrers := append([]backend.OID(nil), db.Object(victim).BackRef...)
	if err := db.DeleteObject(victim); err != nil {
		t.Fatal(err)
	}
	if db.Object(victim) != nil {
		t.Fatal("victim still reachable")
	}
	if db.Store.Exists(victim) {
		t.Fatal("victim still stored")
	}
	// No referrer may still point at the victim.
	for _, from := range referrers {
		fobj := db.Object(from)
		if fobj == nil {
			continue
		}
		for _, r := range fobj.ORef {
			if r == victim {
				t.Fatalf("object %d still references deleted %d", from, victim)
			}
		}
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Double delete fails cleanly.
	if err := db.DeleteObject(victim); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestResolveLive(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	if got, ok := db.ResolveLive(5); !ok || got != 5 {
		t.Fatalf("live OID resolved to %d, %v", got, ok)
	}
	if err := db.DeleteObject(5); err != nil {
		t.Fatal(err)
	}
	got, ok := db.ResolveLive(5)
	if !ok || got == 5 || db.Object(got) == nil {
		t.Fatalf("deleted OID resolved to %d, %v", got, ok)
	}
	// Out-of-range input still resolves somewhere live.
	if got, ok := db.ResolveLive(backend.OID(p.NO + 500)); !ok || db.Object(got) == nil {
		t.Fatalf("out-of-range resolved to %d, %v", got, ok)
	}

	// Randomized churn against the definition: the first live OID at or
	// above the input, wrapping to the lowest live OID, as a binary search
	// of the ascending live snapshot finds it. Each round deletes the
	// roots at 1 and NO among others (so dead runs sit at both ends and
	// the walk must wrap) and inserts a few objects past the old top.
	for seed := uint64(1); seed <= 4; seed++ {
		db := MustGenerate(p)
		rng := rand.New(rand.NewPCG(seed, 0))
		src := lewis.New(int64(seed))
		for round := 0; round < 6; round++ {
			victims := []backend.OID{1, backend.OID(p.NO)}
			for k := 0; k < 40; k++ {
				victims = append(victims, backend.OID(1+rng.IntN(len(db.Objects)-1)))
			}
			top := backend.OID(len(db.Objects) - 1)
			for k := 0; k < 10 && top > 1; k++ {
				victims = append(victims, top)
				top--
			}
			for _, v := range victims {
				if db.Object(v) != nil {
					if err := db.DeleteObject(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < round%3; k++ {
				if _, err := db.InsertObject(src); err != nil {
					t.Fatal(err)
				}
			}
			live := db.LiveOIDs()
			for oid := backend.OID(0); oid <= backend.OID(len(db.Objects)+2); oid++ {
				i := sort.Search(len(live), func(i int) bool { return live[i] >= oid })
				if i == len(live) {
					i = 0
				}
				got, ok := db.ResolveLive(oid)
				if !ok || got != live[i] {
					t.Fatalf("seed %d round %d: ResolveLive(%d) = %d, %v; want %d", seed, round, oid, got, ok, live[i])
				}
			}
		}
		if allocs := testing.AllocsPerRun(100, func() {
			db.ResolveLive(backend.OID(len(db.Objects) - 1))
		}); allocs != 0 {
			t.Fatalf("ResolveLive allocates %v per call", allocs)
		}
	}
}

func TestGenericOperationsViaExecutor(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	ex := NewExecutor(db, nil, lewis.New(7))

	up, err := ex.Exec(Transaction{Type: UpdateOp, Root: 3})
	if err != nil {
		t.Fatal(err)
	}
	if up.ObjectsAccessed != 1 {
		t.Fatalf("update touched %d", up.ObjectsAccessed)
	}

	ins, err := ex.Exec(Transaction{Type: InsertOp})
	if err != nil {
		t.Fatal(err)
	}
	if ins.ObjectsAccessed < 1 {
		t.Fatal("insert touched nothing")
	}

	del, err := ex.Exec(Transaction{Type: DeleteOp, Root: 10})
	if err != nil {
		t.Fatal(err)
	}
	if del.ObjectsAccessed < 1 {
		t.Fatal("delete touched nothing")
	}

	scan, err := ex.Exec(Transaction{Type: ScanOp})
	if err != nil {
		t.Fatal(err)
	}
	if scan.ObjectsAccessed != db.NumLive() {
		t.Fatalf("scan touched %d, live = %d", scan.ObjectsAccessed, db.NumLive())
	}

	rng, err := ex.Exec(Transaction{Type: RangeOp, Root: 50})
	if err != nil {
		t.Fatal(err)
	}
	width := p.NO / 100
	if width < 1 {
		width = 1
	}
	if rng.ObjectsAccessed < 1 || rng.ObjectsAccessed > width {
		t.Fatalf("range touched %d, want 1..%d", rng.ObjectsAccessed, width)
	}

	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestGenericWorkloadEndToEnd(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	r := NewRunner(db, nil)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm.Executed != int64(p.HotN) {
		t.Fatalf("warm tx = %d", res.Warm.Executed)
	}
	// Every one of the nine types must have occurred across the run.
	for typ := TxType(0); typ < NumTxTypes; typ++ {
		if res.Cold.PerOp[typ].Count+res.Warm.PerOp[typ].Count == 0 {
			t.Fatalf("type %v never sampled", typ)
		}
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}

func TestGenericWorkloadDeterministic(t *testing.T) {
	run := func() (int, int) {
		p := genericSmall()
		db := MustGenerate(p)
		r := NewRunner(db, nil)
		if _, err := r.RunPhase("gen", 80, 11); err != nil {
			t.Fatal(err)
		}
		return db.NumLive(), len(db.Objects)
	}
	l1, o1 := run()
	l2, o2 := run()
	if l1 != l2 || o1 != o2 {
		t.Fatalf("nondeterministic mutation: %d/%d vs %d/%d", l1, o1, l2, o2)
	}
}

func TestGenericWorkloadWithDSTC(t *testing.T) {
	// Clustering policies must survive a mutating workload (stale
	// statistics for deleted objects are dropped at unit construction).
	p := genericSmall()
	db := MustGenerate(p)
	rec := &recordingPolicy{}
	r := NewRunner(db, rec)
	if _, err := r.RunPhase("observe", 60, 3); err != nil {
		t.Fatal(err)
	}
	if rec.endTx != 60 {
		t.Fatalf("transactions observed = %d", rec.endTx)
	}
}

func TestUpdateCommitsWrites(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	db.Store.DropCache()
	db.Store.ResetStats()
	ex := NewExecutor(db, nil, lewis.New(1))
	if _, err := ex.Exec(Transaction{Type: UpdateOp, Root: 1}); err != nil {
		t.Fatal(err)
	}
	if w := db.Store.Stats().Disk.TotalWrites(); w == 0 {
		t.Fatal("update committed no writes")
	}
}

func TestScanAfterChurnMatchesLiveSet(t *testing.T) {
	p := genericSmall()
	db := MustGenerate(p)
	src := lewis.New(21)
	for i := 0; i < 10; i++ {
		if _, err := db.InsertObject(src); err != nil {
			t.Fatal(err)
		}
	}
	for oid := backend.OID(20); oid < 40; oid += 2 {
		if err := db.DeleteObject(oid); err != nil {
			t.Fatal(err)
		}
	}
	want := p.NO + 10 - 10
	if db.NumLive() != want {
		t.Fatalf("live = %d, want %d", db.NumLive(), want)
	}
	ex := NewExecutor(db, nil, src)
	scan, err := ex.Exec(Transaction{Type: ScanOp})
	if err != nil {
		t.Fatal(err)
	}
	if scan.ObjectsAccessed != want {
		t.Fatalf("scan = %d, want %d", scan.ObjectsAccessed, want)
	}
	if err := CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
}
