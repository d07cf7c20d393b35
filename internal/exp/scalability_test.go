package exp

import (
	"testing"

	"ocb/internal/backend"
	"ocb/internal/core"
	"ocb/internal/report"
)

// directMeanIOs runs one phase on a freshly generated database with the
// given store shard count and returns its mean I/Os per transaction as the
// experiment tables print it: the 1-client row of a client sweep must
// match it, which pins both the cold-cache reset and the reshard.
func directMeanIOs(t *testing.T, p core.Params, shards, txPerClient int, seed int64) string {
	t.Helper()
	p.StoreShards = shards
	db, err := core.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Shutdown(db.Store)
	db.Store.DropCache()
	m, err := core.NewRunner(db, nil).RunPhase("direct", txPerClient, seed)
	if err != nil {
		t.Fatal(err)
	}
	return report.F1(m.MeanIOsPerOp())
}

func TestScalabilityShape(t *testing.T) {
	tb, err := Scalability(quick)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != len(scalabilityClients) {
		t.Fatalf("scalability table has %d rows, want %d",
			tb.NumRows(), len(scalabilityClients))
	}
	// Every row measures clients * txPerClient transactions.
	for i, row := range tb.Rows() {
		wantClients := scalabilityClients[i]
		if got := cellFloat(t, row[0]); int(got) != wantClients {
			t.Fatalf("row %d clients = %v, want %d", i, got, wantClients)
		}
		tx := cellFloat(t, row[1])
		if int(tx) != wantClients*50 {
			t.Fatalf("row %d transactions = %v, want %d", i, tx, wantClients*50)
		}
		if tput := cellFloat(t, row[3]); tput <= 0 {
			t.Fatalf("row %d throughput = %v", i, tput)
		}
	}
	// With per-transaction think time, concurrent clients must overlap:
	// 8 clients have to deliver at least twice the 1-client throughput.
	rows := tb.Rows()
	speedup8 := cellFloat(t, rows[3][4])
	if speedup8 < 2 {
		t.Fatalf("8-client speedup = %v, want >= 2", speedup8)
	}
	// The 1-client row runs the sweep's 32-shard store from a cold cache.
	if got, want := rows[0][5], directMeanIOs(t, scalabilityParams(quick), 32, 50, 8191); got != want {
		t.Fatalf("1-client mean I/Os per tx = %s, direct RunPhase = %s", got, want)
	}
}
