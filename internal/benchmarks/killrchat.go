package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// Killrchat is the Cassandra-based scalable chat application [2, 13]:
// users, rooms, and messages. Room/user counters are loggable increments;
// the guarded message post (read room state, conditionally insert) is not
// repairable (Table 1: 6 → 3).
var Killrchat = &Benchmark{
	Name: "Killrchat",
	Source: `
table USERS {
  us_login: int key,
  us_name: string,
  us_rooms: int,
}

table ROOMS {
  ro_id: int key,
  ro_creator: int,
  ro_open: bool,
  ro_participants: int,
}

table MESSAGES {
  me_room: int key,
  me_id: int key,
  me_author: int,
  me_text: string,
}

txn createUser(u: int, name: string) {
  insert into USERS values (us_login = u, us_name = name, us_rooms = 0);
}

txn joinRoom(u: int, r: int) {
  p := select ro_participants from ROOMS where ro_id = r;
  update ROOMS set ro_participants = p.ro_participants + 1 where ro_id = r;
  c := select us_rooms from USERS where us_login = u;
  update USERS set us_rooms = c.us_rooms + 1 where us_login = u;
}

txn leaveRoom(u: int, r: int) {
  p := select ro_participants from ROOMS where ro_id = r;
  update ROOMS set ro_participants = p.ro_participants - 1 where ro_id = r;
  c := select us_rooms from USERS where us_login = u;
  update USERS set us_rooms = c.us_rooms - 1 where us_login = u;
}

txn postMessage(u: int, r: int, text: string) {
  x := select ro_open from ROOMS where ro_id = r;
  if (x.ro_open) {
    insert into MESSAGES values (me_room = r, me_id = uuid(), me_author = u, me_text = text);
    update ROOMS set ro_open = true where ro_id = r;
  }
}

txn readRoom(u: int, r: int) {
  m := select me_text from MESSAGES where me_room = r;
  p := select ro_participants from ROOMS where ro_id = r;
  return count(m.me_text) + p.ro_participants;
}
`,
	Mix: []MixEntry{
		{Txn: "createUser", Weight: 5, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			id := int64(sc.Records + rng.Intn(1<<20))
			return Bind(iarg("u", id), sarg("name", fmt.Sprintf("user%d", id)))
		}},
		{Txn: "joinRoom", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("r", int64(rng.Intn(roomCount(s)))))
		}},
		{Txn: "leaveRoom", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("r", int64(rng.Intn(roomCount(s)))))
		}},
		{Txn: "postMessage", Weight: 35, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("r", int64(rng.Intn(roomCount(s)))), sarg("text", fmt.Sprintf("msg %d", rng.Intn(1000))))
		}},
		{Txn: "readRoom", Weight: 25, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("r", int64(rng.Intn(roomCount(s)))))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		for r := 0; r < roomCount(s); r++ {
			rows = append(rows, store.TableRow{Table: "ROOMS", Row: store.Row{
				"ro_id": iv(int64(r)), "ro_creator": iv(0), "ro_open": bv(true), "ro_participants": iv(0),
			}})
		}
		for i := 0; i < s.Records; i++ {
			rows = append(rows, store.TableRow{Table: "USERS", Row: store.Row{
				"us_login": iv(int64(i)), "us_name": sv(fmt.Sprintf("user%d", i)), "us_rooms": iv(0),
			}})
		}
		return rows
	},
}

func roomCount(s Scale) int {
	s = s.orDefault()
	n := s.Records / 20
	if n < 2 {
		n = 2
	}
	return n
}
