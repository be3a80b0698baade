package replay_test

import (
	"fmt"
	"hash/fnv"
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

// scheduleText is everything a witness schedule says: the transactions it
// names, every item with its key pins, the execution order, the visibility
// matrix, the aliasing valuation and both cycle edges.
func scheduleText(s *anomaly.Schedule) string {
	if s == nil {
		return "<nil>\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %d\n", s.TxnA, s.TxnB, s.NA)
	for _, it := range s.Items {
		fmt.Fprintf(&b, "item %d %d %s %s", it.Inst, it.Idx, it.Label, it.Table)
		for _, p := range it.Pins {
			fmt.Fprintf(&b, " [%s %s %d %s]", p.Field, p.Term, p.Kind, ast.ExprString(p.Expr))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "order %v\n", s.Order)
	for _, row := range s.Vis {
		fmt.Fprintf(&b, "vis %v\n", row)
	}
	for _, eq := range s.Eqs {
		fmt.Fprintf(&b, "eq %s %s %s %s %t\n", eq.Table, eq.Field, eq.A, eq.B, eq.Equal)
	}
	for _, e := range []anomaly.SchedEdge{s.Edge1, s.Edge2} {
		fmt.Fprintf(&b, "edge %d %d %s %v\n", e.From, e.To, e.Kind, e.Fields)
	}
	return b.String()
}

// TestWitnessScheduleGolden pins the witness schedule of every reported
// pair: the nine benchmarks and progen seeds 0–95, each under EC, CC and
// RR, one FNV-1a hash per cell over each pair with its schedule. Set
// ATROPOS_PRINT_SCHEDULE_GOLDEN=1 to print the table in this file's format.
func TestWitnessScheduleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus regression; skipped with -short")
	}
	var names []string
	var progs []*ast.Program
	for _, b := range benchmarks.All() {
		names = append(names, b.Name)
		progs = append(progs, b.MustProgram())
	}
	for seed := range int64(96) {
		names = append(names, "progen"+strconv.FormatInt(seed, 10))
		progs = append(progs, progen.Program(seed))
	}
	got := map[string]uint64{}
	for i, prog := range progs {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			rep := witnessed(t, prog, m)
			scheds := schedulesOf(prog, rep)
			if len(scheds) != len(rep.Pairs) {
				t.Fatalf("%s/%s: %d schedules for %d pairs", names[i], m, len(scheds), len(rep.Pairs))
			}
			h := fnv.New64a()
			for j, p := range rep.Pairs {
				fmt.Fprintf(h, "%s\n%s", p, scheduleText(scheds[j]))
			}
			got[names[i]+"/"+m.String()] = h.Sum64()
		}
	}
	if os.Getenv("ATROPOS_PRINT_SCHEDULE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %#016x,\n", k, got[k])
		}
		fmt.Print(b.String())
	}
	if len(got) != len(scheduleGolden) {
		t.Errorf("%d cells, golden has %d", len(got), len(scheduleGolden))
	}
	for k, want := range scheduleGolden {
		if g, ok := got[k]; !ok || g != want {
			t.Errorf("%s: schedule hash %#016x, golden %#016x", k, g, want)
		}
	}
}

// scheduleGolden was recorded on the small model's canonical witness
// schedules.
var scheduleGolden = map[string]uint64{
	"Courseware/CC": 0xba0cc34c492b919b,
	"Courseware/EC": 0x93f8161ba1c29545,
	"Courseware/RR": 0x3ca09bf3205e3607,
	"FMKe/CC":       0xe7874b27cb926160,
	"FMKe/EC":       0x0cfeeaa151c37f63,
	"FMKe/RR":       0x43dda85c51d392ce,
	"Killrchat/CC":  0xe12fde81bc254f06,
	"Killrchat/EC":  0x01a9f55c31cc8246,
	"Killrchat/RR":  0xb7d034dab56daada,
	"SEATS/CC":      0x80ffc0dc375dafa1,
	"SEATS/EC":      0x87e747d52b1aeb19,
	"SEATS/RR":      0x47005df34936a208,
	"SIBench/CC":    0xb5b15094228ab556,
	"SIBench/EC":    0xb5b15094228ab556,
	"SIBench/RR":    0xb5b15094228ab556,
	"SmallBank/CC":  0x036ee9d4f48b9b25,
	"SmallBank/EC":  0x309d413565a06b3e,
	"SmallBank/RR":  0xb9397dce68ab5ba6,
	"TPC-C/CC":      0x4c4643900185a633,
	"TPC-C/EC":      0xd645ca000d13f60b,
	"TPC-C/RR":      0x70023624f17860ec,
	"Twitter/CC":    0x580f08444031b669,
	"Twitter/EC":    0x88e16ac8395a78a2,
	"Twitter/RR":    0xe1009aa3b0f9fcc4,
	"Wikipedia/CC":  0xf8dedb790f8ca0d2,
	"Wikipedia/EC":  0xbfb54e9c17b3ee38,
	"Wikipedia/RR":  0xe7040f60b86c236b,
	"progen0/CC":    0xa85b4d99aabeaca6,
	"progen0/EC":    0xa85b4d99aabeaca6,
	"progen0/RR":    0xa85b4d99aabeaca6,
	"progen1/CC":    0xd1d29db9a267f387,
	"progen1/EC":    0xd1d29db9a267f387,
	"progen1/RR":    0x029dc4f5957043e7,
	"progen10/CC":   0x8b1241e84b0885e0,
	"progen10/EC":   0x8b1241e84b0885e0,
	"progen10/RR":   0x8b1241e84b0885e0,
	"progen11/CC":   0x90eb5d540f101186,
	"progen11/EC":   0x1d62ba684e42465b,
	"progen11/RR":   0x93c8b1504d80b11f,
	"progen12/CC":   0x12fbaad698b5a8e4,
	"progen12/EC":   0x12fbaad698b5a8e4,
	"progen12/RR":   0x612022ee10b5c147,
	"progen13/CC":   0x3fe5700bf06748dc,
	"progen13/EC":   0xdd833e742f0b46f7,
	"progen13/RR":   0x3030fd7ba7003b33,
	"progen14/CC":   0xbd1ab3582e16b7b5,
	"progen14/EC":   0x3308a28de8e83b24,
	"progen14/RR":   0xa3cc380b3fbde89b,
	"progen15/CC":   0xce4e0dad8bd9612b,
	"progen15/EC":   0xce4e0dad8bd9612b,
	"progen15/RR":   0xce4e0dad8bd9612b,
	"progen16/CC":   0xad091cf901a55c9a,
	"progen16/EC":   0x4db07e3481a8ced7,
	"progen16/RR":   0x38bef256132d9f93,
	"progen17/CC":   0x6bdb511b31b2a9a3,
	"progen17/EC":   0x6bdb511b31b2a9a3,
	"progen17/RR":   0xc065e3c6f867b904,
	"progen18/CC":   0xc5dc89d2ba1dcc01,
	"progen18/EC":   0xc5dc89d2ba1dcc01,
	"progen18/RR":   0xc5dc89d2ba1dcc01,
	"progen19/CC":   0xa0d7ea7f00ed06be,
	"progen19/EC":   0xa0d7ea7f00ed06be,
	"progen19/RR":   0xcec8abb48ee4cb40,
	"progen2/CC":    0xcbf29ce484222325,
	"progen2/EC":    0xcbf29ce484222325,
	"progen2/RR":    0xcbf29ce484222325,
	"progen20/CC":   0x46eba5bbbcb5fc9c,
	"progen20/EC":   0x46eba5bbbcb5fc9c,
	"progen20/RR":   0x46eba5bbbcb5fc9c,
	"progen21/CC":   0xded9887f1ec2d9cb,
	"progen21/EC":   0xded9887f1ec2d9cb,
	"progen21/RR":   0x54aee040241c9b5c,
	"progen22/CC":   0x684eb16a03a09253,
	"progen22/EC":   0x684eb16a03a09253,
	"progen22/RR":   0x684eb16a03a09253,
	"progen23/CC":   0x9c55f24b202e5e37,
	"progen23/EC":   0x9c55f24b202e5e37,
	"progen23/RR":   0x73d477ab3757d4b6,
	"progen24/CC":   0x9d7f078bf57bf8d7,
	"progen24/EC":   0x9d7f078bf57bf8d7,
	"progen24/RR":   0xf90971573e3d6af9,
	"progen25/CC":   0xcbf29ce484222325,
	"progen25/EC":   0xcbf29ce484222325,
	"progen25/RR":   0xcbf29ce484222325,
	"progen26/CC":   0x62bbf3b5d703e7aa,
	"progen26/EC":   0x1a8e0ce3b8b8c729,
	"progen26/RR":   0x14d781069e0d1988,
	"progen27/CC":   0xf834da5358f971d5,
	"progen27/EC":   0xf834da5358f971d5,
	"progen27/RR":   0xf834da5358f971d5,
	"progen28/CC":   0xcbf29ce484222325,
	"progen28/EC":   0xcbf29ce484222325,
	"progen28/RR":   0xcbf29ce484222325,
	"progen29/CC":   0xcbf29ce484222325,
	"progen29/EC":   0xcbf29ce484222325,
	"progen29/RR":   0xcbf29ce484222325,
	"progen3/CC":    0x32c633b44fde0db2,
	"progen3/EC":    0x32c633b44fde0db2,
	"progen3/RR":    0x32c633b44fde0db2,
	"progen30/CC":   0xc54b2decd19047b9,
	"progen30/EC":   0xc54b2decd19047b9,
	"progen30/RR":   0x210e548d74363355,
	"progen31/CC":   0xcbf29ce484222325,
	"progen31/EC":   0xcbf29ce484222325,
	"progen31/RR":   0xcbf29ce484222325,
	"progen32/CC":   0x0d10098be967504f,
	"progen32/EC":   0x0d10098be967504f,
	"progen32/RR":   0xe74ffc09c9ff4969,
	"progen33/CC":   0x87bab55f3bda1eb6,
	"progen33/EC":   0x1914be0ce50224f2,
	"progen33/RR":   0xd80bc9982da3f06b,
	"progen34/CC":   0x28ebc7997b6c422a,
	"progen34/EC":   0x28ebc7997b6c422a,
	"progen34/RR":   0x3686a23adb9a8d9e,
	"progen35/CC":   0x87ccf065db68c520,
	"progen35/EC":   0x87ccf065db68c520,
	"progen35/RR":   0x2e31d49401c72a1b,
	"progen36/CC":   0xaec25492bf6035f5,
	"progen36/EC":   0xaec25492bf6035f5,
	"progen36/RR":   0x8d4a8737f20feb91,
	"progen37/CC":   0xe124ce800e5446af,
	"progen37/EC":   0xe124ce800e5446af,
	"progen37/RR":   0x9d20f20ac81fce5f,
	"progen38/CC":   0x122d1b99d212e98a,
	"progen38/EC":   0x122d1b99d212e98a,
	"progen38/RR":   0x48ef32e8a593b447,
	"progen39/CC":   0x45062e07c1c2408b,
	"progen39/EC":   0x45062e07c1c2408b,
	"progen39/RR":   0x45062e07c1c2408b,
	"progen4/CC":    0x04fcf08f39094941,
	"progen4/EC":    0x04fcf08f39094941,
	"progen4/RR":    0x04fcf08f39094941,
	"progen40/CC":   0xe74632f90d3194f5,
	"progen40/EC":   0xe74632f90d3194f5,
	"progen40/RR":   0x4fcb7b503a8b09ed,
	"progen41/CC":   0x0d85e17b88e74c82,
	"progen41/EC":   0x0d85e17b88e74c82,
	"progen41/RR":   0xd139e4627209563c,
	"progen42/CC":   0xd1eea18f3e4bf98a,
	"progen42/EC":   0xd1eea18f3e4bf98a,
	"progen42/RR":   0xd1eea18f3e4bf98a,
	"progen43/CC":   0xa638c3ef3794eb17,
	"progen43/EC":   0xa638c3ef3794eb17,
	"progen43/RR":   0x0e9a15fc87e0d504,
	"progen44/CC":   0xf656e4e951a04f97,
	"progen44/EC":   0xf656e4e951a04f97,
	"progen44/RR":   0xae48140480a028f5,
	"progen45/CC":   0x89d8af1458d55dd4,
	"progen45/EC":   0x89d8af1458d55dd4,
	"progen45/RR":   0x9d719d36f6bcb6ec,
	"progen46/CC":   0x94c8423762da29c9,
	"progen46/EC":   0x94c8423762da29c9,
	"progen46/RR":   0xd7ae84e12d3d8bf2,
	"progen47/CC":   0xd3941a8a1b3edf90,
	"progen47/EC":   0xd3941a8a1b3edf90,
	"progen47/RR":   0x43ba2eb117296fcf,
	"progen48/CC":   0xd0e80ef60d941be7,
	"progen48/EC":   0xd0e80ef60d941be7,
	"progen48/RR":   0xd0e80ef60d941be7,
	"progen49/CC":   0x6da01a9afe272bfd,
	"progen49/EC":   0x6da01a9afe272bfd,
	"progen49/RR":   0x6da01a9afe272bfd,
	"progen5/CC":    0xa43f6542b1747098,
	"progen5/EC":    0xa43f6542b1747098,
	"progen5/RR":    0xa43f6542b1747098,
	"progen50/CC":   0xf2a3ffab65b203ab,
	"progen50/EC":   0xf2a3ffab65b203ab,
	"progen50/RR":   0xc7ca141e4b8348f0,
	"progen51/CC":   0x486deee4699f4754,
	"progen51/EC":   0x486deee4699f4754,
	"progen51/RR":   0x77935ed9a9b1b2b3,
	"progen52/CC":   0x9a0e2590cd7dc9d7,
	"progen52/EC":   0x9a0e2590cd7dc9d7,
	"progen52/RR":   0xe6e7232dab421a35,
	"progen53/CC":   0x31377cbc74e8b590,
	"progen53/EC":   0x8fb7d12365574139,
	"progen53/RR":   0xa42c47f665fa2e18,
	"progen54/CC":   0xcbf29ce484222325,
	"progen54/EC":   0xcbf29ce484222325,
	"progen54/RR":   0xcbf29ce484222325,
	"progen55/CC":   0x6e099439e797c18b,
	"progen55/EC":   0x6e099439e797c18b,
	"progen55/RR":   0x6e099439e797c18b,
	"progen56/CC":   0xc15264be70e74a1c,
	"progen56/EC":   0xc15264be70e74a1c,
	"progen56/RR":   0x8820d504705e3702,
	"progen57/CC":   0x44eedf51517cfe8e,
	"progen57/EC":   0x44eedf51517cfe8e,
	"progen57/RR":   0x44eedf51517cfe8e,
	"progen58/CC":   0xff8b807db751cff6,
	"progen58/EC":   0xff8b807db751cff6,
	"progen58/RR":   0x1ddb22a33cf3c945,
	"progen59/CC":   0x33351fe7d7119dcb,
	"progen59/EC":   0x33351fe7d7119dcb,
	"progen59/RR":   0x33351fe7d7119dcb,
	"progen6/CC":    0x6522c514a9c35fc9,
	"progen6/EC":    0x6522c514a9c35fc9,
	"progen6/RR":    0x6522c514a9c35fc9,
	"progen60/CC":   0x6ab5e89eaf1ebcfb,
	"progen60/EC":   0xd8abce81a84146c9,
	"progen60/RR":   0x6b79c0562f8836d3,
	"progen61/CC":   0xcbf29ce484222325,
	"progen61/EC":   0xcbf29ce484222325,
	"progen61/RR":   0xcbf29ce484222325,
	"progen62/CC":   0xc7b6531de4ba33ef,
	"progen62/EC":   0xc7b6531de4ba33ef,
	"progen62/RR":   0x23465c6eb77ca79a,
	"progen63/CC":   0xf6e99c284ed4f4ee,
	"progen63/EC":   0xf6e99c284ed4f4ee,
	"progen63/RR":   0x10159549553af7d7,
	"progen64/CC":   0x33aaa761f792f7d6,
	"progen64/EC":   0x1a5275866324cbde,
	"progen64/RR":   0x9952a412a8d2d40a,
	"progen65/CC":   0xc0a0837d4b816b86,
	"progen65/EC":   0x4f565e3f46ac6ce1,
	"progen65/RR":   0xe49712023a9a0875,
	"progen66/CC":   0xd196948a4ac80749,
	"progen66/EC":   0xd196948a4ac80749,
	"progen66/RR":   0xd196948a4ac80749,
	"progen67/CC":   0xae783124e7f3e5dc,
	"progen67/EC":   0x9dfb0496ed72b76b,
	"progen67/RR":   0x83be1c0338c1ecf0,
	"progen68/CC":   0x293525ecb186ae7f,
	"progen68/EC":   0x293525ecb186ae7f,
	"progen68/RR":   0xf855dfd864d5b37f,
	"progen69/CC":   0x3f6d8df581356bd0,
	"progen69/EC":   0x3f6d8df581356bd0,
	"progen69/RR":   0x271336745afd61ad,
	"progen7/CC":    0xea9791f526becf5e,
	"progen7/EC":    0xea9791f526becf5e,
	"progen7/RR":    0xea9791f526becf5e,
	"progen70/CC":   0x644aabd793ac2190,
	"progen70/EC":   0x644aabd793ac2190,
	"progen70/RR":   0xfb982d97eb274679,
	"progen71/CC":   0xe6477ee42589a6b0,
	"progen71/EC":   0xe6477ee42589a6b0,
	"progen71/RR":   0xe6477ee42589a6b0,
	"progen72/CC":   0xd9d95dccad7eb21e,
	"progen72/EC":   0x4da8fa153d923008,
	"progen72/RR":   0xb7e3b8dc20f07474,
	"progen73/CC":   0xe772448924295113,
	"progen73/EC":   0xe772448924295113,
	"progen73/RR":   0xe772448924295113,
	"progen74/CC":   0x35e44ae1598e424f,
	"progen74/EC":   0x35e44ae1598e424f,
	"progen74/RR":   0xf7dccc7464c175d9,
	"progen75/CC":   0x76a249567f22cf6f,
	"progen75/EC":   0x76a249567f22cf6f,
	"progen75/RR":   0x76a249567f22cf6f,
	"progen76/CC":   0x2aeba0f097bbd2d8,
	"progen76/EC":   0x2aeba0f097bbd2d8,
	"progen76/RR":   0x99c267e807c3dcd3,
	"progen77/CC":   0xcbf29ce484222325,
	"progen77/EC":   0xcbf29ce484222325,
	"progen77/RR":   0xcbf29ce484222325,
	"progen78/CC":   0xcb70c7409574d696,
	"progen78/EC":   0xcb70c7409574d696,
	"progen78/RR":   0xa2c67bc29340dfc0,
	"progen79/CC":   0x5268f52655c13543,
	"progen79/EC":   0x5268f52655c13543,
	"progen79/RR":   0x9d1d8fec3f2d1712,
	"progen8/CC":    0xcbf29ce484222325,
	"progen8/EC":    0xcbf29ce484222325,
	"progen8/RR":    0xcbf29ce484222325,
	"progen80/CC":   0x8767c8e9abcf91e5,
	"progen80/EC":   0x8767c8e9abcf91e5,
	"progen80/RR":   0x8767c8e9abcf91e5,
	"progen81/CC":   0x00cc5780d944059d,
	"progen81/EC":   0x00cc5780d944059d,
	"progen81/RR":   0x00cc5780d944059d,
	"progen82/CC":   0xd0b996f70e36a770,
	"progen82/EC":   0xd0b996f70e36a770,
	"progen82/RR":   0x4da325d54be02197,
	"progen83/CC":   0xcbf29ce484222325,
	"progen83/EC":   0xcbf29ce484222325,
	"progen83/RR":   0xcbf29ce484222325,
	"progen84/CC":   0x1a45438aa0516ede,
	"progen84/EC":   0x1a45438aa0516ede,
	"progen84/RR":   0x82a70f891811d3d6,
	"progen85/CC":   0x40cda432baf9d631,
	"progen85/EC":   0xfbcbb84707a78a8f,
	"progen85/RR":   0x74847eda99c7f233,
	"progen86/CC":   0x44659777d3beae50,
	"progen86/EC":   0x44659777d3beae50,
	"progen86/RR":   0x44659777d3beae50,
	"progen87/CC":   0x4acc421b3825d7a1,
	"progen87/EC":   0x4acc421b3825d7a1,
	"progen87/RR":   0x9a43ac1c9d04cc1c,
	"progen88/CC":   0x236377692e2f1b34,
	"progen88/EC":   0x236377692e2f1b34,
	"progen88/RR":   0x236377692e2f1b34,
	"progen89/CC":   0x1713eccd03beb26e,
	"progen89/EC":   0x1713eccd03beb26e,
	"progen89/RR":   0x8a506d7eb18f0d2d,
	"progen9/CC":    0xcbf29ce484222325,
	"progen9/EC":    0xcbf29ce484222325,
	"progen9/RR":    0xcbf29ce484222325,
	"progen90/CC":   0x33ac14d6d8cd00a9,
	"progen90/EC":   0x44e62f7e4c013984,
	"progen90/RR":   0x5b4a0b6b6457e823,
	"progen91/CC":   0x66213c2be2b3c44b,
	"progen91/EC":   0x66213c2be2b3c44b,
	"progen91/RR":   0x66213c2be2b3c44b,
	"progen92/CC":   0x604c8a5e9745c598,
	"progen92/EC":   0x604c8a5e9745c598,
	"progen92/RR":   0x033f4bd0111bc246,
	"progen93/CC":   0xd3b0750303ae79b3,
	"progen93/EC":   0xd3b0750303ae79b3,
	"progen93/RR":   0x84a962fcf129816b,
	"progen94/CC":   0xb77a610e51d420d7,
	"progen94/EC":   0xb77a610e51d420d7,
	"progen94/RR":   0xb77a610e51d420d7,
	"progen95/CC":   0xd30933c340509a2e,
	"progen95/EC":   0xd30933c340509a2e,
	"progen95/RR":   0xa4effb5b2e434871,
}
