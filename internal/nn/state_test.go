package nn

import (
	"errors"
	"math/rand"
	"testing"
)

func buildStatefulNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(
		NewSkipConcat(NewNetwork(
			NewDense(3, 4, rng),
			NewBatchNorm(4),
			NewReLU(),
		)),
		NewDense(7, 2, rng),
	)
}

func TestSnapshotRoundTrip(t *testing.T) {
	net := buildStatefulNet(1)
	// Train a little so batch-norm running stats and weights diverge from
	// initialization.
	rng := rand.New(rand.NewSource(2))
	x := randBatch(rng, 32, 3)
	y := make([]int, 32)
	for i := range y {
		if x[i][0] > 0 {
			y[i] = 1
		}
	}
	opt := NewAdam(1e-2, 0)
	var g Tensor
	for e := 0; e < 10; e++ {
		if _, err := SoftmaxCET(net.ForwardT(rowsT(x)), y, &g); err != nil {
			t.Fatal(err)
		}
		net.BackwardT(&g)
		opt.Step(net.Params())
	}
	var s InferScratch
	want := Infer(net, rowsT(x), &s).ToRows()

	snap := TakeSnapshot(net)
	fresh := buildStatefulNet(99) // different init, same architecture
	if err := RestoreSnapshot(fresh, snap); err != nil {
		t.Fatal(err)
	}
	got := Infer(fresh, rowsT(x), &s).ToRows()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("restored output differs at [%d][%d]: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	net := buildStatefulNet(3)
	snap := TakeSnapshot(net)
	// Mutate the network after snapshotting.
	net.Params()[0].Data[0] += 100
	if snap.Params[0][0] == net.Params()[0].Data[0] {
		t.Error("snapshot must copy parameter data")
	}
}

func TestRestoreSnapshotMismatch(t *testing.T) {
	net := buildStatefulNet(4)
	snap := TakeSnapshot(net)

	rng := rand.New(rand.NewSource(5))
	other := NewNetwork(NewDense(3, 2, rng))
	if err := RestoreSnapshot(other, snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("err = %v; want ErrSnapshotMismatch", err)
	}

	// Same param count but wrong stateful-layer count.
	snap2 := TakeSnapshot(net)
	snap2.Extra = nil
	if err := RestoreSnapshot(net, snap2); !errors.Is(err, ErrSnapshotMismatch) {
		t.Errorf("err = %v; want ErrSnapshotMismatch", err)
	}
}

func TestBatchNormExtraState(t *testing.T) {
	bn := NewBatchNorm(2)
	bn.ForwardT(rowsT([][]float64{{4, -2}, {6, -4}, {5, -3}}))
	state := bn.ExtraState()
	if len(state) != 2 || len(state[0]) != 2 {
		t.Fatalf("state shape wrong: %v", state)
	}
	fresh := NewBatchNorm(2)
	if err := fresh.SetExtraState(state); err != nil {
		t.Fatal(err)
	}
	x := rowsT([][]float64{{5, -3}})
	var s InferScratch
	out1 := Infer(bn, x, &s).ToRows()
	out2 := Infer(fresh, x, &s).ToRows()
	// Gamma/beta are parameters (identical defaults), running stats now
	// match, so inference outputs must agree.
	if out1[0][0] != out2[0][0] || out1[0][1] != out2[0][1] {
		t.Errorf("outputs differ after state restore: %v vs %v", out1[0], out2[0])
	}
	if err := fresh.SetExtraState([][]float64{{1}}); err == nil {
		t.Error("expected shape error")
	}
}
