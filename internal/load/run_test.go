package load

import (
	"net"
	"testing"
	"time"

	"maxelerator/internal/daemon"
	"maxelerator/internal/protocol"
)

// TestRunChecksAnswers drives a live daemon twice: once with the
// matrix it serves, once claiming a different one. Only the second run
// may count miscomputed sessions, and it must count every one.
func TestRunChecksAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("live sessions need seconds of wall clock")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := daemon.DemoMatrix(2, 3, 8, 1)
	d, err := daemon.Start(daemon.Config{
		Listener: ln, Matrix: served, Width: 8, GarbleWorkers: 1,
		Timeouts: protocol.Timeouts{Handshake: 20 * time.Second, IO: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	other := daemon.DemoMatrix(2, 3, 8, 1)
	other[1][2]++
	sc := Scenario{
		Rate: 4, Process: Uniform, DurationSec: 0.3, Seed: 1, // one arrival at 0.25 s
		Shapes: []ShapeWeight{{Rows: 2, Cols: 3, Width: 8, Weight: 1}},
	}
	for _, tc := range []struct {
		name        string
		matrix      [][]int64
		miscomputed int
	}{
		{"served matrix", served, 0},
		{"different matrix", other, 1},
	} {
		r, err := Run(Config{Target: ln.Addr().String(), Scenario: sc, Matrix: tc.matrix, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if r.Started != 1 || r.Failed != 0 || r.Shed != 0 {
			t.Fatalf("%s: %+v, want one session that completed", tc.name, r)
		}
		if r.Miscomputed != tc.miscomputed || r.Succeeded != 1-tc.miscomputed {
			t.Errorf("%s: miscomputed %d succeeded %d, want %d and %d",
				tc.name, r.Miscomputed, r.Succeeded, tc.miscomputed, 1-tc.miscomputed)
		}
	}
}

func TestWantMatVecWraps(t *testing.T) {
	A := [][]int64{{200, 200}, {-3, 2}}
	// 200·100 + 200·100 = 40000 wraps in a signed 16-bit accumulator.
	got := wantMatVec(A, []int64{100, 100}, 16)
	if got[0] != 40000-65536 || got[1] != -100 {
		t.Fatalf("wantMatVec = %v, want [%d -100]", got, 40000-65536)
	}
	if got := wantMatVec(A, []int64{100, 100}, 64); got[0] != 40000 {
		t.Fatalf("64-bit accumulator wrapped: %v", got)
	}
}
