package cclique

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"subgraph/internal/graph"
)

// TestListingGolden pins both listers' outputs on E6's sweep at seed 1:
// K_3 at n ∈ {16, 24, 32, 48, 64} and K_4 at n ∈ {16, 24, 32, 48}, each on
// GNP(n, 0.5) drawn from rand.NewSource(seed+n) as E6Listing draws it.
// A row covers the communication stats, the partition parameters and the
// listed cliques (count plus an FNV-1a hash of the sorted list), so a
// change to the simulator or the listing code that moves any of them
// fails here. On a mismatch the test prints the new row as a literal.
func TestListingGolden(t *testing.T) {
	for _, want := range listingGoldens {
		got, err := runGolden(want.Lister, want.N, want.S)
		if err != nil {
			t.Fatalf("%s K_%d n=%d: %v", want.Lister, want.S, want.N, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s K_%d n=%d differs:\n got %s\nwant %s",
				want.Lister, want.S, want.N, got.literal(), want.literal())
		}
	}
}

const goldenSeed = 1

// listingGolden is one lister's recorded output on one graph of the sweep.
type listingGolden struct {
	Lister        string
	N, S          int
	Rounds        int
	TotalBits     int64
	TotalMessages int64
	PairPeak      int // most bits on one ordered pair within a round
	PerRoundBits  []int64
	Groups        int
	Collectors    int
	B             int
	Cliques       int
	Hash          uint64
}

func runGolden(lister string, n, s int) (listingGolden, error) {
	list := map[string]func(*graph.Graph, int, int) (*ListResult, error){
		"partition": ListCliques,
		"naive":     ListCliquesNaive,
	}[lister]
	g := graph.GNP(n, 0.5, rand.New(rand.NewSource(goldenSeed+int64(n))))
	res, err := list(g, s, 0)
	if err != nil {
		return listingGolden{}, err
	}
	return listingGolden{
		Lister:        lister,
		N:             n,
		S:             s,
		Rounds:        res.Stats.Rounds,
		TotalBits:     res.Stats.TotalBits,
		TotalMessages: res.Stats.TotalMessages,
		PairPeak:      pairPeak(res),
		PerRoundBits:  res.Stats.PerRoundBits,
		Groups:        res.Groups,
		Collectors:    res.Collectors,
		B:             res.B,
		Cliques:       len(res.Cliques),
		Hash:          cliqueHash(res.Cliques),
	}, nil
}

// cliqueHash is FNV-1a over the clique list in order, each vertex as a
// little-endian uint32 and each clique closed by 0xFFFFFFFF.
func cliqueHash(cliques [][]int) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range cliques {
		for _, v := range c {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
		binary.LittleEndian.PutUint32(buf[:], 0xFFFFFFFF)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (r listingGolden) literal() string {
	bits := make([]string, len(r.PerRoundBits))
	for i, b := range r.PerRoundBits {
		bits[i] = fmt.Sprint(b)
	}
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, []int64{%s}, %d, %d, %d, %d, %#x},",
		r.Lister, r.N, r.S, r.Rounds, r.TotalBits, r.TotalMessages, r.PairPeak,
		strings.Join(bits, ", "), r.Groups, r.Collectors, r.B, r.Cliques, r.Hash)
}

// Fields: lister, n, s, rounds, total bits, total messages, per-pair peak,
// per-round bits, groups, collectors, B, clique count, clique-list hash.
var listingGoldens = []listingGolden{
	{"partition", 16, 3, 11, 14820, 780, 19, []int64{4560, 2622, 209, 4560, 1311, 741, 418, 190, 133, 76, 0}, 3, 10, 19, 50, 0xb3fa076752200dc3},
	{"partition", 24, 3, 15, 39976, 2104, 19, []int64{10488, 7277, 2014, 190, 10488, 3838, 2489, 1596, 703, 437, 228, 76, 76, 76, 0}, 4, 20, 19, 228, 0x77a7b8c997664eb9},
	{"partition", 32, 3, 15, 84722, 3851, 22, []int64{21824, 15730, 4554, 330, 21824, 6336, 4884, 3916, 2178, 1672, 902, 396, 88, 88, 0}, 4, 20, 22, 588, 0x743c94c636e0cf96},
	{"partition", 48, 3, 18, 222332, 10106, 22, []int64{49632, 39358, 18370, 3388, 330, 49632, 21978, 14762, 10472, 7282, 3476, 1936, 1012, 462, 132, 66, 44, 0}, 5, 35, 22, 2272, 0x66da6ddb45b46206},
	{"partition", 64, 3, 19, 494800, 19792, 25, []int64{100800, 82125, 47800, 15750, 850, 100800, 53025, 36675, 23375, 13850, 8800, 5250, 2875, 1475, 700, 425, 175, 50, 0}, 6, 56, 25, 4934, 0x59e137b692d3432c},
	{"partition", 16, 4, 14, 20368, 1072, 19, []int64{4560, 3496, 1729, 418, 4560, 2394, 1406, 893, 380, 247, 152, 95, 38, 0}, 3, 15, 19, 15, 0xd1c700032d29de7},
	{"partition", 24, 4, 22, 49628, 2612, 19, []int64{10488, 8113, 4579, 1292, 304, 10488, 2584, 2470, 2128, 1558, 1216, 1102, 684, 684, 684, 456, 342, 114, 114, 114, 114, 0}, 3, 15, 19, 134, 0xaf1c8a1e3d650481},
	{"partition", 32, 4, 27, 105424, 4792, 22, []int64{21824, 18040, 8778, 3674, 506, 21824, 7348, 5962, 4686, 3410, 2772, 2222, 1452, 1100, 748, 396, 286, 110, 66, 66, 44, 22, 22, 22, 22, 22, 0}, 3, 15, 22, 550, 0x6334b362a283b1a4},
	{"partition", 48, 4, 29, 345114, 15687, 22, []int64{49632, 43010, 35618, 23408, 13420, 5632, 1232, 682, 49632, 28050, 22990, 18524, 14256, 11396, 8778, 6050, 4224, 2970, 2024, 1320, 968, 660, 286, 154, 88, 44, 44, 22, 0}, 4, 35, 22, 3386, 0xf51df011e41dfa24},
	{"naive", 16, 3, 2, 3840, 240, 16, []int64{3840, 0}, 0, 0, 40, 50, 0xb3fa076752200dc3},
	{"naive", 24, 3, 2, 13248, 552, 24, []int64{13248, 0}, 0, 0, 40, 228, 0x77a7b8c997664eb9},
	{"naive", 32, 3, 2, 31744, 992, 32, []int64{31744, 0}, 0, 0, 48, 588, 0x743c94c636e0cf96},
	{"naive", 48, 3, 2, 108288, 2256, 48, []int64{108288, 0}, 0, 0, 48, 2272, 0x66da6ddb45b46206},
	{"naive", 64, 3, 3, 258048, 8064, 56, []int64{225792, 32256, 0}, 0, 0, 56, 4934, 0x59e137b692d3432c},
	{"naive", 16, 4, 2, 3840, 240, 16, []int64{3840, 0}, 0, 0, 40, 15, 0xd1c700032d29de7},
	{"naive", 24, 4, 2, 13248, 552, 24, []int64{13248, 0}, 0, 0, 40, 134, 0xaf1c8a1e3d650481},
	{"naive", 32, 4, 2, 31744, 992, 32, []int64{31744, 0}, 0, 0, 48, 550, 0x6334b362a283b1a4},
	{"naive", 48, 4, 2, 108288, 2256, 48, []int64{108288, 0}, 0, 0, 48, 3386, 0xf51df011e41dfa24},
}
