package repair

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
)

// goldenProgramCells lists the repaired-program golden's cells in order:
// the nine benchmarks, then progen seeds 0–95, each under EC, CC and RR.
func goldenProgramCells() (names []string, progs []*ast.Program) {
	for _, b := range benchmarks.All() {
		names = append(names, b.Name)
		progs = append(progs, b.MustProgram())
	}
	for seed := range int64(96) {
		names = append(names, "progen"+strconv.FormatInt(seed, 10))
		progs = append(progs, progen.Program(seed))
	}
	return names, progs
}

// TestRepairedProgramGolden pins ast.HashProgram of every repaired program:
// 105 inputs × EC/CC/RR, 315 cells. The hash covers every schema and every
// transaction body, so a refactoring step that starts sharing (or copying)
// the wrong node, or a detector change that repairs a pair differently,
// names its cell here. Set ATROPOS_PRINT_PROGRAM_GOLDEN=1 to print the
// table in this file's format.
func TestRepairedProgramGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus regression; skipped with -short")
	}
	names, progs := goldenProgramCells()
	got := map[string]uint64{}
	for i, prog := range progs {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			res, err := Run(context.Background(), prog, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", names[i], m, err)
			}
			got[names[i]+"/"+m.String()] = ast.HashProgram(res.Program)
		}
	}
	if os.Getenv("ATROPOS_PRINT_PROGRAM_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %#016x,\n", k, got[k])
		}
		t.Logf("\n%s", b.String())
	}
	if len(got) != len(goldenRepairedPrograms) {
		t.Errorf("cells = %d, golden %d", len(got), len(goldenRepairedPrograms))
	}
	for cell, want := range goldenRepairedPrograms {
		if h, ok := got[cell]; !ok {
			t.Errorf("%s: missing", cell)
		} else if h != want {
			t.Errorf("%s: repaired program hash %#016x, golden %#016x", cell, h, want)
		}
	}
}

// goldenRepairedPrograms was recorded before the small-model detector
// replaced the SAT solver; it must not be re-recorded to make a change pass.
var goldenRepairedPrograms = map[string]uint64{
	"Courseware/CC": 0xd708b23598ffbd15,
	"Courseware/EC": 0xd708b23598ffbd15,
	"Courseware/RR": 0xd708b23598ffbd15,
	"FMKe/CC":       0x927a20efe25b83ac,
	"FMKe/EC":       0x927a20efe25b83ac,
	"FMKe/RR":       0x927a20efe25b83ac,
	"Killrchat/CC":  0xfcf7ede66d9c3d4a,
	"Killrchat/EC":  0xfcf7ede66d9c3d4a,
	"Killrchat/RR":  0xfcf7ede66d9c3d4a,
	"SEATS/CC":      0xc528f44ce410e1df,
	"SEATS/EC":      0xc528f44ce410e1df,
	"SEATS/RR":      0xc528f44ce410e1df,
	"SIBench/CC":    0xf27ef1100b4cff17,
	"SIBench/EC":    0xf27ef1100b4cff17,
	"SIBench/RR":    0xf27ef1100b4cff17,
	"SmallBank/CC":  0xd8a0967db5621214,
	"SmallBank/EC":  0xd8a0967db5621214,
	"SmallBank/RR":  0xd8a0967db5621214,
	"TPC-C/CC":      0xcdfc7e870591bf56,
	"TPC-C/EC":      0xcdfc7e870591bf56,
	"TPC-C/RR":      0xcdfc7e870591bf56,
	"Twitter/CC":    0xcda53f79447c3d23,
	"Twitter/EC":    0xcda53f79447c3d23,
	"Twitter/RR":    0xcda53f79447c3d23,
	"Wikipedia/CC":  0xe6b42e1cfbf0891d,
	"Wikipedia/EC":  0xe6b42e1cfbf0891d,
	"Wikipedia/RR":  0xe6b42e1cfbf0891d,
	"progen0/CC":    0x246ecdeab36dab32,
	"progen0/EC":    0x246ecdeab36dab32,
	"progen0/RR":    0x246ecdeab36dab32,
	"progen1/CC":    0x65e68c43008d32b7,
	"progen1/EC":    0x65e68c43008d32b7,
	"progen1/RR":    0x65e68c43008d32b7,
	"progen10/CC":   0x356de75bb18e9237,
	"progen10/EC":   0x356de75bb18e9237,
	"progen10/RR":   0x356de75bb18e9237,
	"progen11/CC":   0x0bf9ae912cb36852,
	"progen11/EC":   0x0bf9ae912cb36852,
	"progen11/RR":   0x0bf9ae912cb36852,
	"progen12/CC":   0x5ba5999eab6e0d53,
	"progen12/EC":   0x5ba5999eab6e0d53,
	"progen12/RR":   0x5ba5999eab6e0d53,
	"progen13/CC":   0x6637a804982d766e,
	"progen13/EC":   0x6637a804982d766e,
	"progen13/RR":   0x6637a804982d766e,
	"progen14/CC":   0x083fe6c9efb33c72,
	"progen14/EC":   0x083fe6c9efb33c72,
	"progen14/RR":   0x083fe6c9efb33c72,
	"progen15/CC":   0x672ad9ce9aec9532,
	"progen15/EC":   0x672ad9ce9aec9532,
	"progen15/RR":   0x672ad9ce9aec9532,
	"progen16/CC":   0x11f3509bdb97564d,
	"progen16/EC":   0x11f3509bdb97564d,
	"progen16/RR":   0x11f3509bdb97564d,
	"progen17/CC":   0x2e748979235f4848,
	"progen17/EC":   0x2e748979235f4848,
	"progen17/RR":   0x2e748979235f4848,
	"progen18/CC":   0x11a8ce085e8ccb03,
	"progen18/EC":   0x11a8ce085e8ccb03,
	"progen18/RR":   0x11a8ce085e8ccb03,
	"progen19/CC":   0x4e09e8068fca99b9,
	"progen19/EC":   0x4e09e8068fca99b9,
	"progen19/RR":   0x4e09e8068fca99b9,
	"progen2/CC":    0x3a1a61551943c30c,
	"progen2/EC":    0x3a1a61551943c30c,
	"progen2/RR":    0x3a1a61551943c30c,
	"progen20/CC":   0x5136964b3bf8fc99,
	"progen20/EC":   0x5136964b3bf8fc99,
	"progen20/RR":   0x5136964b3bf8fc99,
	"progen21/CC":   0x564a3dc889a180f0,
	"progen21/EC":   0x564a3dc889a180f0,
	"progen21/RR":   0x564a3dc889a180f0,
	"progen22/CC":   0x7d0cac2f46a865ce,
	"progen22/EC":   0x7d0cac2f46a865ce,
	"progen22/RR":   0x7d0cac2f46a865ce,
	"progen23/CC":   0x4162156971fbdd0e,
	"progen23/EC":   0x4162156971fbdd0e,
	"progen23/RR":   0x4162156971fbdd0e,
	"progen24/CC":   0x7df8ef5312dfc715,
	"progen24/EC":   0x7df8ef5312dfc715,
	"progen24/RR":   0x7df8ef5312dfc715,
	"progen25/CC":   0x3eb2bce86f6d4746,
	"progen25/EC":   0x3eb2bce86f6d4746,
	"progen25/RR":   0x3eb2bce86f6d4746,
	"progen26/CC":   0x0cf154e48de20b8e,
	"progen26/EC":   0x0cf154e48de20b8e,
	"progen26/RR":   0x0cf154e48de20b8e,
	"progen27/CC":   0x27394b9e868ec346,
	"progen27/EC":   0x27394b9e868ec346,
	"progen27/RR":   0x27394b9e868ec346,
	"progen28/CC":   0x4c11ad00ac51ddac,
	"progen28/EC":   0x4c11ad00ac51ddac,
	"progen28/RR":   0x4c11ad00ac51ddac,
	"progen29/CC":   0x78b0638f848bd00e,
	"progen29/EC":   0x78b0638f848bd00e,
	"progen29/RR":   0x78b0638f848bd00e,
	"progen3/CC":    0x5e36dbd95f87ea8a,
	"progen3/EC":    0x5e36dbd95f87ea8a,
	"progen3/RR":    0x5e36dbd95f87ea8a,
	"progen30/CC":   0x43dae6db995fb240,
	"progen30/EC":   0x43dae6db995fb240,
	"progen30/RR":   0x43dae6db995fb240,
	"progen31/CC":   0x7574c6ab8520f056,
	"progen31/EC":   0x7574c6ab8520f056,
	"progen31/RR":   0x7574c6ab8520f056,
	"progen32/CC":   0x1dfa5128b4d4d25c,
	"progen32/EC":   0x1dfa5128b4d4d25c,
	"progen32/RR":   0x1dfa5128b4d4d25c,
	"progen33/CC":   0x511e2a1d78b6d806,
	"progen33/EC":   0x511e2a1d78b6d806,
	"progen33/RR":   0x511e2a1d78b6d806,
	"progen34/CC":   0x6d7cd13ee5e171a4,
	"progen34/EC":   0x6d7cd13ee5e171a4,
	"progen34/RR":   0x6d7cd13ee5e171a4,
	"progen35/CC":   0x232b86ac56d9e550,
	"progen35/EC":   0x232b86ac56d9e550,
	"progen35/RR":   0x232b86ac56d9e550,
	"progen36/CC":   0x271d5c7ab3321e54,
	"progen36/EC":   0x271d5c7ab3321e54,
	"progen36/RR":   0x271d5c7ab3321e54,
	"progen37/CC":   0x300445ff0dab0b50,
	"progen37/EC":   0x300445ff0dab0b50,
	"progen37/RR":   0x300445ff0dab0b50,
	"progen38/CC":   0x50c20fe89654c964,
	"progen38/EC":   0x50c20fe89654c964,
	"progen38/RR":   0x50c20fe89654c964,
	"progen39/CC":   0x51333c4f536fe3e7,
	"progen39/EC":   0x51333c4f536fe3e7,
	"progen39/RR":   0x51333c4f536fe3e7,
	"progen4/CC":    0x321a5003d6ccd8a8,
	"progen4/EC":    0x321a5003d6ccd8a8,
	"progen4/RR":    0x321a5003d6ccd8a8,
	"progen40/CC":   0x70fc0222317359e7,
	"progen40/EC":   0x70fc0222317359e7,
	"progen40/RR":   0x70fc0222317359e7,
	"progen41/CC":   0x28409e05db73aa8b,
	"progen41/EC":   0x28409e05db73aa8b,
	"progen41/RR":   0x28409e05db73aa8b,
	"progen42/CC":   0x6198775ab33735a2,
	"progen42/EC":   0x6198775ab33735a2,
	"progen42/RR":   0x6198775ab33735a2,
	"progen43/CC":   0x5504a0718cbcc88f,
	"progen43/EC":   0x5504a0718cbcc88f,
	"progen43/RR":   0x5504a0718cbcc88f,
	"progen44/CC":   0x72d60fa8dfb13920,
	"progen44/EC":   0x72d60fa8dfb13920,
	"progen44/RR":   0x72d60fa8dfb13920,
	"progen45/CC":   0x04d5cbeb9dd8d3c5,
	"progen45/EC":   0x04d5cbeb9dd8d3c5,
	"progen45/RR":   0x04d5cbeb9dd8d3c5,
	"progen46/CC":   0x12215a5c48574103,
	"progen46/EC":   0x12215a5c48574103,
	"progen46/RR":   0x12215a5c48574103,
	"progen47/CC":   0x40d0cc333817d26e,
	"progen47/EC":   0x40d0cc333817d26e,
	"progen47/RR":   0x40d0cc333817d26e,
	"progen48/CC":   0x4e9c3f7a17f66300,
	"progen48/EC":   0x4e9c3f7a17f66300,
	"progen48/RR":   0x4e9c3f7a17f66300,
	"progen49/CC":   0x0c3068bc451ade6b,
	"progen49/EC":   0x0c3068bc451ade6b,
	"progen49/RR":   0x0c3068bc451ade6b,
	"progen5/CC":    0x47ae89c2865559ca,
	"progen5/EC":    0x47ae89c2865559ca,
	"progen5/RR":    0x47ae89c2865559ca,
	"progen50/CC":   0x755f95ff5a1835bc,
	"progen50/EC":   0x755f95ff5a1835bc,
	"progen50/RR":   0x755f95ff5a1835bc,
	"progen51/CC":   0x4fae39409c6494b0,
	"progen51/EC":   0x4fae39409c6494b0,
	"progen51/RR":   0x4fae39409c6494b0,
	"progen52/CC":   0x0945f6464c0a1318,
	"progen52/EC":   0x0945f6464c0a1318,
	"progen52/RR":   0x0945f6464c0a1318,
	"progen53/CC":   0x350ef90c606e91e9,
	"progen53/EC":   0x350ef90c606e91e9,
	"progen53/RR":   0x350ef90c606e91e9,
	"progen54/CC":   0x3ce256b34172a7ca,
	"progen54/EC":   0x3ce256b34172a7ca,
	"progen54/RR":   0x3ce256b34172a7ca,
	"progen55/CC":   0x20e13ad98809a1f9,
	"progen55/EC":   0x20e13ad98809a1f9,
	"progen55/RR":   0x20e13ad98809a1f9,
	"progen56/CC":   0x5cbe9148d7188f58,
	"progen56/EC":   0x5cbe9148d7188f58,
	"progen56/RR":   0x5cbe9148d7188f58,
	"progen57/CC":   0x103ef0a8214fba33,
	"progen57/EC":   0x103ef0a8214fba33,
	"progen57/RR":   0x103ef0a8214fba33,
	"progen58/CC":   0x51ba1b18799dcac5,
	"progen58/EC":   0x51ba1b18799dcac5,
	"progen58/RR":   0x51ba1b18799dcac5,
	"progen59/CC":   0x038223b1a887fc63,
	"progen59/EC":   0x038223b1a887fc63,
	"progen59/RR":   0x038223b1a887fc63,
	"progen6/CC":    0x5439db049745264f,
	"progen6/EC":    0x5439db049745264f,
	"progen6/RR":    0x5439db049745264f,
	"progen60/CC":   0x7ee2c7a19687d806,
	"progen60/EC":   0x7ee2c7a19687d806,
	"progen60/RR":   0x7ee2c7a19687d806,
	"progen61/CC":   0x7c1f7fda990bae66,
	"progen61/EC":   0x7c1f7fda990bae66,
	"progen61/RR":   0x7c1f7fda990bae66,
	"progen62/CC":   0x7a8ca79073c99fd7,
	"progen62/EC":   0x7a8ca79073c99fd7,
	"progen62/RR":   0x7a8ca79073c99fd7,
	"progen63/CC":   0x2054f64e78dcf220,
	"progen63/EC":   0x2054f64e78dcf220,
	"progen63/RR":   0x2054f64e78dcf220,
	"progen64/CC":   0x5610db6adf2a2681,
	"progen64/EC":   0x5610db6adf2a2681,
	"progen64/RR":   0x5610db6adf2a2681,
	"progen65/CC":   0x4a8b6a356bc31327,
	"progen65/EC":   0x4a8b6a356bc31327,
	"progen65/RR":   0x4a8b6a356bc31327,
	"progen66/CC":   0x687704364a562db3,
	"progen66/EC":   0x687704364a562db3,
	"progen66/RR":   0x687704364a562db3,
	"progen67/CC":   0x55ec9525d25631f8,
	"progen67/EC":   0x55ec9525d25631f8,
	"progen67/RR":   0x55ec9525d25631f8,
	"progen68/CC":   0x503fedab810bb0d1,
	"progen68/EC":   0x503fedab810bb0d1,
	"progen68/RR":   0x503fedab810bb0d1,
	"progen69/CC":   0x14d948f4d6d94b15,
	"progen69/EC":   0x14d948f4d6d94b15,
	"progen69/RR":   0x14d948f4d6d94b15,
	"progen7/CC":    0x56401d1e2a183998,
	"progen7/EC":    0x56401d1e2a183998,
	"progen7/RR":    0x56401d1e2a183998,
	"progen70/CC":   0x4d571e66e0cc20e6,
	"progen70/EC":   0x4d571e66e0cc20e6,
	"progen70/RR":   0x4d571e66e0cc20e6,
	"progen71/CC":   0x3b6462728b3ae756,
	"progen71/EC":   0x3b6462728b3ae756,
	"progen71/RR":   0x3b6462728b3ae756,
	"progen72/CC":   0x661ca1be59b8694d,
	"progen72/EC":   0x661ca1be59b8694d,
	"progen72/RR":   0x661ca1be59b8694d,
	"progen73/CC":   0x78ce77f8f9bf8870,
	"progen73/EC":   0x78ce77f8f9bf8870,
	"progen73/RR":   0x78ce77f8f9bf8870,
	"progen74/CC":   0x0cae65557531f7fc,
	"progen74/EC":   0x0cae65557531f7fc,
	"progen74/RR":   0x0cae65557531f7fc,
	"progen75/CC":   0x2da4ce0427a70965,
	"progen75/EC":   0x2da4ce0427a70965,
	"progen75/RR":   0x2da4ce0427a70965,
	"progen76/CC":   0x150702d288c84f6a,
	"progen76/EC":   0x150702d288c84f6a,
	"progen76/RR":   0x150702d288c84f6a,
	"progen77/CC":   0x754e1b7f24485c87,
	"progen77/EC":   0x754e1b7f24485c87,
	"progen77/RR":   0x754e1b7f24485c87,
	"progen78/CC":   0x5c94948184a716e8,
	"progen78/EC":   0x5c94948184a716e8,
	"progen78/RR":   0x5c94948184a716e8,
	"progen79/CC":   0x3c5929d34773cc20,
	"progen79/EC":   0x3c5929d34773cc20,
	"progen79/RR":   0x3c5929d34773cc20,
	"progen8/CC":    0x6d5c8cdb0113e8d3,
	"progen8/EC":    0x6d5c8cdb0113e8d3,
	"progen8/RR":    0x6d5c8cdb0113e8d3,
	"progen80/CC":   0x217c7cc521a3cf92,
	"progen80/EC":   0x217c7cc521a3cf92,
	"progen80/RR":   0x217c7cc521a3cf92,
	"progen81/CC":   0x4f8a5b970e077489,
	"progen81/EC":   0x4f8a5b970e077489,
	"progen81/RR":   0x4f8a5b970e077489,
	"progen82/CC":   0x7048698dc784b8a8,
	"progen82/EC":   0x7048698dc784b8a8,
	"progen82/RR":   0x7048698dc784b8a8,
	"progen83/CC":   0x0af516dd02cd3192,
	"progen83/EC":   0x0af516dd02cd3192,
	"progen83/RR":   0x0af516dd02cd3192,
	"progen84/CC":   0x19d576c8c256e538,
	"progen84/EC":   0x19d576c8c256e538,
	"progen84/RR":   0x19d576c8c256e538,
	"progen85/CC":   0x07b3dcc219527f49,
	"progen85/EC":   0x07b3dcc219527f49,
	"progen85/RR":   0x07b3dcc219527f49,
	"progen86/CC":   0x6e10c2d6cba3b1f0,
	"progen86/EC":   0x6e10c2d6cba3b1f0,
	"progen86/RR":   0x6e10c2d6cba3b1f0,
	"progen87/CC":   0x158cbec4885ee50e,
	"progen87/EC":   0x158cbec4885ee50e,
	"progen87/RR":   0x158cbec4885ee50e,
	"progen88/CC":   0x58aa9530dbf3d2bb,
	"progen88/EC":   0x58aa9530dbf3d2bb,
	"progen88/RR":   0x58aa9530dbf3d2bb,
	"progen89/CC":   0x7ea0e5310f445e90,
	"progen89/EC":   0x7ea0e5310f445e90,
	"progen89/RR":   0x7ea0e5310f445e90,
	"progen9/CC":    0x1492876d5c779767,
	"progen9/EC":    0x1492876d5c779767,
	"progen9/RR":    0x1492876d5c779767,
	"progen90/CC":   0x65420c45590bc72e,
	"progen90/EC":   0x65420c45590bc72e,
	"progen90/RR":   0x65420c45590bc72e,
	"progen91/CC":   0x293e34345f76981a,
	"progen91/EC":   0x293e34345f76981a,
	"progen91/RR":   0x293e34345f76981a,
	"progen92/CC":   0x3ec903e4aff795f2,
	"progen92/EC":   0x3ec903e4aff795f2,
	"progen92/RR":   0x3ec903e4aff795f2,
	"progen93/CC":   0x4bfb01b09c6e4f86,
	"progen93/EC":   0x4bfb01b09c6e4f86,
	"progen93/RR":   0x4bfb01b09c6e4f86,
	"progen94/CC":   0x5c161df8b281ffb7,
	"progen94/EC":   0x5c161df8b281ffb7,
	"progen94/RR":   0x5c161df8b281ffb7,
	"progen95/CC":   0x42980102e85e730e,
	"progen95/EC":   0x42980102e85e730e,
	"progen95/RR":   0x42980102e85e730e,
}
