package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// Courseware is the course-management benchmark [25, 29] — the paper's
// running example (Figs. 1–3) extended to the five transactions the
// evaluation uses. Every anomaly is repairable: the email and availability
// fields fold into STUDENT and the enrollment counter becomes a logging
// table, dropping COURSE and EMAIL (Table 1: 3 tables → 2, 5 → 0).
var Courseware = &Benchmark{
	Name: "Courseware",
	Source: `
table COURSE {
  co_id: int key,
  co_avail: bool,
  co_st_cnt: int,
}

table EMAIL {
  em_id: int key,
  em_addr: string,
}

table STUDENT {
  st_id: int key,
  st_name: string,
  st_em_id: int,
  st_co_id: int,
  st_reg: bool,
}

txn getSt(id: int) {
  x := select * from STUDENT where st_id = id;
  y := select em_addr from EMAIL where em_id = x.st_em_id;
  z := select co_avail from COURSE where co_id = x.st_co_id;
  return y.em_addr;
}

txn setSt(id: int, name: string, email: string) {
  x := select st_em_id from STUDENT where st_id = id;
  update STUDENT set st_name = name where st_id = id;
  update EMAIL set em_addr = email where em_id = x.st_em_id;
}

txn regSt(id: int, course: int) {
  update STUDENT set st_co_id = course, st_reg = true where st_id = id;
  x := select co_st_cnt from COURSE where co_id = course;
  update COURSE set co_st_cnt = x.co_st_cnt + 1, co_avail = true where co_id = course;
}

txn unregSt(id: int, course: int) {
  update STUDENT set st_reg = false, st_co_id = course where st_id = id;
  x := select co_st_cnt from COURSE where co_id = course;
  update COURSE set co_st_cnt = x.co_st_cnt - 1, co_avail = true where co_id = course;
}

txn addSt(id: int, name: string, em: int) {
  insert into STUDENT values (st_id = id, st_name = name, st_em_id = em, st_co_id = 0, st_reg = false);
}
`,
	Mix: []MixEntry{
		{Txn: "getSt", Weight: 40, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("id", s.Key(rng)))
		}},
		{Txn: "setSt", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			k := s.Key(rng)
			return Bind(iarg("id", k), sarg("name", fmt.Sprintf("name%d", rng.Intn(1000))), sarg("email", fmt.Sprintf("u%d@example.org", rng.Intn(1000))))
		}},
		{Txn: "regSt", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("id", s.Key(rng)), iarg("course", int64(rng.Intn(courseCount(s)))))
		}},
		{Txn: "unregSt", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("id", s.Key(rng)), iarg("course", int64(rng.Intn(courseCount(s)))))
		}},
		{Txn: "addSt", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			id := int64(sc.Records + rng.Intn(1<<20))
			return Bind(iarg("id", id), sarg("name", fmt.Sprintf("new%d", id)), iarg("em", id))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		nCourses := courseCount(s)
		for c := 0; c < nCourses; c++ {
			rows = append(rows, store.TableRow{Table: "COURSE", Row: store.Row{
				"co_id": iv(int64(c)), "co_avail": bv(true), "co_st_cnt": iv(0),
			}})
		}
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "EMAIL", Row: store.Row{"em_id": id, "em_addr": sv(fmt.Sprintf("u%d@example.org", i))}},
				store.TableRow{Table: "STUDENT", Row: store.Row{
					"st_id": id, "st_name": sv(fmt.Sprintf("student%d", i)),
					"st_em_id": id, "st_co_id": iv(int64(i % nCourses)), "st_reg": bv(false),
				}},
			)
		}
		return rows
	},
}

func courseCount(s Scale) int {
	s = s.orDefault()
	n := s.Records / 10
	if n < 2 {
		n = 2
	}
	return n
}
