package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// generatorsGolden is the SHA-256 over the fingerprints of the grids
// TestGeneratorsGolden generates. Any change to node placement, candidate
// neighbour selection or edge filling changes it; update it only together
// with a documented, re-verified change to the experiments' outputs.
const generatorsGolden = "f6991a98f0fd221adf90b1a97d4b3d264818f88ea43d5f25b7f5efc75517c6cc"

// TestGeneratorsGolden pins both generators byte for byte: the synthetic
// generator on the Table 6 shapes plus two small ones, ten seeds each, and
// the Caribbean ocean mesh at two seeds.
func TestGeneratorsGolden(t *testing.T) {
	h := sha256.New()
	for _, s := range []struct{ v, e, d int }{
		{704, 1550, 7}, {400, 846, 9}, {400, 846, 6}, {200, 430, 9}, {300, 640, 8}, {12, 24, 5},
	} {
		for seed := int64(0); seed < 10; seed++ {
			g, err := GenerateSynthetic(SyntheticConfig{Nodes: s.v, Edges: s.e, MaxOutDegree: s.d, Seed: seed})
			if err != nil {
				t.Fatalf("synthetic v%d-e%d-d%d seed %d: %v", s.v, s.e, s.d, seed, err)
			}
			io.WriteString(h, g.Fingerprint()+"\n")
		}
	}
	for _, seed := range []int64{1, 2} {
		g, err := CaribbeanGrid(seed)
		if err != nil {
			t.Fatalf("caribbean seed %d: %v", seed, err)
		}
		io.WriteString(h, g.Fingerprint()+"\n")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorsGolden {
		t.Fatalf("generator digest = %s, want %s", got, generatorsGolden)
	}
}
