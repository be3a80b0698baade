package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// SEATS is the airline ticketing benchmark [18, 45]: eight tables and six
// transactions over customers, flights, and reservations. Seat-count and
// mileage increments are loggable; the guarded seat change in
// updateReservation is not (Table 1: 35 → 10).
var SEATS = &Benchmark{
	Name: "SEATS",
	Source: `
table COUNTRY {
  cn_id: int key,
  cn_name: string,
}

table AIRPORT {
  ap_id: int key,
  ap_cn_id: int,
  ap_name: string,
}

table AIRLINE {
  al_id: int key,
  al_cn_id: int,
  al_name: string,
}

table CUSTOMER {
  cu_id: int key,
  cu_base_ap_id: int,
  cu_balance: int,
  cu_sattr: int,
}

table FREQUENT_FLYER {
  ff_cu_id: int key,
  ff_al_id: int key,
  ff_miles: int,
}

table FLIGHT {
  fl_id: int key,
  fl_al_id: int,
  fl_depart_ap_id: int,
  fl_arrive_ap_id: int,
  fl_base_price: int,
  fl_seats_left: int,
  fl_status: int,
}

table RESERVATION {
  re_id: int key,
  re_cu_id: int,
  re_fl_id: int,
  re_seat: int,
  re_price: int,
  re_active: bool,
}

table CONFIG {
  cf_id: int key,
  cf_val: int,
}

txn findFlights(depart: int, arrive: int) {
  f := select fl_base_price from FLIGHT where fl_depart_ap_id = depart && fl_arrive_ap_id = arrive;
  a := select ap_name from AIRPORT where ap_id = depart;
  return count(f.fl_base_price);
}

txn findOpenSeats(f: int) {
  fl := select fl_seats_left from FLIGHT where fl_id = f;
  re := select re_seat from RESERVATION where re_fl_id = f;
  return fl.fl_seats_left - count(re.re_seat);
}

txn newReservation(r: int, c: int, f: int, al: int, seat: int) {
  pr := select fl_base_price from FLIGHT where fl_id = f;
  insert into RESERVATION values (re_id = r, re_cu_id = c, re_fl_id = f, re_seat = seat, re_price = pr.fl_base_price, re_active = true);
  sl := select fl_seats_left from FLIGHT where fl_id = f;
  update FLIGHT set fl_seats_left = sl.fl_seats_left - 1 where fl_id = f;
  fm := select ff_miles from FREQUENT_FLYER where ff_cu_id = c && ff_al_id = al;
  update FREQUENT_FLYER set ff_miles = fm.ff_miles + 100 where ff_cu_id = c && ff_al_id = al;
}

txn updateCustomer(c: int, attr: int) {
  cu := select cu_base_ap_id from CUSTOMER where cu_id = c;
  update CUSTOMER set cu_sattr = attr where cu_id = c;
  ap := select ap_name from AIRPORT where ap_id = cu.cu_base_ap_id;
  return count(ap.ap_name);
}

txn updateReservation(r: int, seat: int) {
  re := select re_seat from RESERVATION where re_id = r;
  if (re.re_seat != seat) {
    update RESERVATION set re_seat = seat where re_id = r;
  }
}

txn deleteReservation(r: int, c: int, f: int, al: int) {
  re := select re_price from RESERVATION where re_id = r;
  update RESERVATION set re_active = false where re_id = r;
  cb := select cu_balance from CUSTOMER where cu_id = c;
  update CUSTOMER set cu_balance = cb.cu_balance + re.re_price where cu_id = c;
  sl := select fl_seats_left from FLIGHT where fl_id = f;
  update FLIGHT set fl_seats_left = sl.fl_seats_left + 1 where fl_id = f;
  fm := select ff_miles from FREQUENT_FLYER where ff_cu_id = c && ff_al_id = al;
  update FREQUENT_FLYER set ff_miles = fm.ff_miles - 100 where ff_cu_id = c && ff_al_id = al;
}
`,
	Mix: []MixEntry{
		{Txn: "findFlights", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("depart", int64(rng.Intn(airports(s)))), iarg("arrive", int64(rng.Intn(airports(s)))))
		}},
		{Txn: "findOpenSeats", Weight: 35, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("f", int64(rng.Intn(flights(s)))))
		}},
		{Txn: "newReservation", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			return Bind(iarg("r", int64(sc.Records+rng.Intn(1<<20))), iarg("c", s.Key(rng)),
				iarg("f", int64(rng.Intn(flights(s)))), iarg("al", int64(rng.Intn(3))), iarg("seat", int64(rng.Intn(150))))
		}},
		{Txn: "updateCustomer", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("c", s.Key(rng)), iarg("attr", int64(rng.Intn(1000))))
		}},
		{Txn: "updateReservation", Weight: 15, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("r", s.Key(rng)), iarg("seat", int64(rng.Intn(150))))
		}},
		{Txn: "deleteReservation", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("r", s.Key(rng)), iarg("c", s.Key(rng)), iarg("f", int64(rng.Intn(flights(s)))), iarg("al", int64(rng.Intn(3))))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		rows = append(rows, store.TableRow{Table: "COUNTRY", Row: store.Row{"cn_id": iv(0), "cn_name": sv("US")}})
		for a := 0; a < airports(s); a++ {
			rows = append(rows, store.TableRow{Table: "AIRPORT", Row: store.Row{
				"ap_id": iv(int64(a)), "ap_cn_id": iv(0), "ap_name": sv(fmt.Sprintf("AP%d", a)),
			}})
		}
		for al := 0; al < 3; al++ {
			rows = append(rows, store.TableRow{Table: "AIRLINE", Row: store.Row{
				"al_id": iv(int64(al)), "al_cn_id": iv(0), "al_name": sv(fmt.Sprintf("AL%d", al)),
			}})
		}
		for f := 0; f < flights(s); f++ {
			rows = append(rows, store.TableRow{Table: "FLIGHT", Row: store.Row{
				"fl_id": iv(int64(f)), "fl_al_id": iv(int64(f % 3)),
				"fl_depart_ap_id": iv(int64(f % airports(s))), "fl_arrive_ap_id": iv(int64((f + 1) % airports(s))),
				"fl_base_price": iv(100), "fl_seats_left": iv(150), "fl_status": iv(0),
			}})
		}
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "CUSTOMER", Row: store.Row{
					"cu_id": id, "cu_base_ap_id": iv(int64(i % airports(s))), "cu_balance": iv(0), "cu_sattr": iv(0),
				}},
				store.TableRow{Table: "FREQUENT_FLYER", Row: store.Row{
					"ff_cu_id": id, "ff_al_id": iv(int64(i % 3)), "ff_miles": iv(0),
				}},
				store.TableRow{Table: "RESERVATION", Row: store.Row{
					"re_id": id, "re_cu_id": id, "re_fl_id": iv(int64(i % flights(s))),
					"re_seat": iv(int64(i % 150)), "re_price": iv(100), "re_active": bv(true),
				}},
			)
		}
		rows = append(rows, store.TableRow{Table: "CONFIG", Row: store.Row{"cf_id": iv(0), "cf_val": iv(1)}})
		return rows
	},
}

func airports(s Scale) int {
	s = s.orDefault()
	n := s.Records / 20
	if n < 3 {
		n = 3
	}
	return n
}

func flights(s Scale) int {
	s = s.orDefault()
	n := s.Records / 5
	if n < 4 {
		n = 4
	}
	return n
}
