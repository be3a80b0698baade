package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// TPCC is the TPC-C order-processing benchmark [1, 30]: nine tables and the
// five standard transactions. The YTD and counter increments are loggable;
// the order-id allocator (d_next_o_id feeds the order inserts, so its read
// never becomes dead) and the threshold read of s_quantity are not —
// matching the partial repair of Table 1 (33 → 8).
var TPCC = &Benchmark{
	Name: "TPC-C",
	Source: `
table WAREHOUSE {
  w_id: int key,
  w_name: string,
  w_ytd: int,
}

table DISTRICT {
  d_w_id: int key,
  d_id: int key,
  d_next_o_id: int,
  d_ytd: int,
}

table CUSTOMER {
  c_w_id: int key,
  c_d_id: int key,
  c_id: int key,
  c_name: string,
  c_balance: int,
  c_ytd_payment: int,
  c_payment_cnt: int,
  c_delivery_cnt: int,
}

table ORDERS {
  o_w_id: int key,
  o_d_id: int key,
  o_id: int key,
  o_c_id: int,
  o_carrier_id: int,
  o_ol_cnt: int,
}

table NEW_ORDER {
  no_w_id: int key,
  no_d_id: int key,
  no_o_id: int key,
  no_pending: bool,
}

table ORDER_LINE {
  ol_w_id: int key,
  ol_d_id: int key,
  ol_o_id: int key,
  ol_number: int key,
  ol_i_id: int,
  ol_amount: int,
  ol_delivered: bool,
}

table ITEM {
  i_id: int key,
  i_name: string,
  i_price: int,
}

table STOCK {
  s_w_id: int key,
  s_i_id: int key,
  s_quantity: int,
  s_ytd: int,
  s_order_cnt: int,
}

table HISTORY {
  h_id: int key,
  h_c_id: int,
  h_amount: int,
}

txn newOrder(w: int, d: int, c: int, item: int, qty: int) {
  nx := select d_next_o_id from DISTRICT where d_w_id = w && d_id = d;
  update DISTRICT set d_next_o_id = nx.d_next_o_id + 1 where d_w_id = w && d_id = d;
  insert into ORDERS values (o_w_id = w, o_d_id = d, o_id = nx.d_next_o_id, o_c_id = c, o_carrier_id = 0, o_ol_cnt = 1);
  insert into NEW_ORDER values (no_w_id = w, no_d_id = d, no_o_id = nx.d_next_o_id, no_pending = true);
  pr := select i_price from ITEM where i_id = item;
  sq := select s_quantity from STOCK where s_w_id = w && s_i_id = item;
  update STOCK set s_quantity = sq.s_quantity - qty where s_w_id = w && s_i_id = item;
  sy := select s_ytd from STOCK where s_w_id = w && s_i_id = item;
  update STOCK set s_ytd = sy.s_ytd + qty where s_w_id = w && s_i_id = item;
  so := select s_order_cnt from STOCK where s_w_id = w && s_i_id = item;
  update STOCK set s_order_cnt = so.s_order_cnt + 1 where s_w_id = w && s_i_id = item;
  insert into ORDER_LINE values (ol_w_id = w, ol_d_id = d, ol_o_id = nx.d_next_o_id, ol_number = 1, ol_i_id = item, ol_amount = pr.i_price * qty, ol_delivered = false);
}

txn payment(w: int, d: int, c: int, amt: int) {
  wy := select w_ytd from WAREHOUSE where w_id = w;
  update WAREHOUSE set w_ytd = wy.w_ytd + amt where w_id = w;
  dy := select d_ytd from DISTRICT where d_w_id = w && d_id = d;
  update DISTRICT set d_ytd = dy.d_ytd + amt where d_w_id = w && d_id = d;
  cb := select c_balance from CUSTOMER where c_w_id = w && c_d_id = d && c_id = c;
  update CUSTOMER set c_balance = cb.c_balance - amt where c_w_id = w && c_d_id = d && c_id = c;
  cp := select c_payment_cnt from CUSTOMER where c_w_id = w && c_d_id = d && c_id = c;
  update CUSTOMER set c_payment_cnt = cp.c_payment_cnt + 1 where c_w_id = w && c_d_id = d && c_id = c;
  insert into HISTORY values (h_id = uuid(), h_c_id = c, h_amount = amt);
}

txn orderStatus(w: int, d: int, c: int, oid: int) {
  cb := select c_balance from CUSTOMER where c_w_id = w && c_d_id = d && c_id = c;
  oo := select o_carrier_id from ORDERS where o_w_id = w && o_d_id = d && o_id = oid;
  ol := select ol_amount from ORDER_LINE where ol_w_id = w && ol_d_id = d && ol_o_id = oid;
  return cb.c_balance + oo.o_carrier_id + sum(ol.ol_amount);
}

txn delivery(w: int, d: int, oid: int, carrier: int) {
  np := select no_pending from NEW_ORDER where no_w_id = w && no_d_id = d && no_o_id = oid;
  if (np.no_pending) {
    update NEW_ORDER set no_pending = false where no_w_id = w && no_d_id = d && no_o_id = oid;
    update ORDERS set o_carrier_id = carrier where o_w_id = w && o_d_id = d && o_id = oid;
    oc := select o_c_id from ORDERS where o_w_id = w && o_d_id = d && o_id = oid;
    ol := select ol_amount from ORDER_LINE where ol_w_id = w && ol_d_id = d && ol_o_id = oid;
    update ORDER_LINE set ol_delivered = true where ol_w_id = w && ol_d_id = d && ol_o_id = oid;
    cb := select c_balance from CUSTOMER where c_w_id = w && c_d_id = d && c_id = oc.o_c_id;
    update CUSTOMER set c_balance = cb.c_balance + sum(ol.ol_amount) where c_w_id = w && c_d_id = d && c_id = oc.o_c_id;
    cd := select c_delivery_cnt from CUSTOMER where c_w_id = w && c_d_id = d && c_id = oc.o_c_id;
    update CUSTOMER set c_delivery_cnt = cd.c_delivery_cnt + 1 where c_w_id = w && c_d_id = d && c_id = oc.o_c_id;
  }
}

txn stockLevel(w: int, d: int, threshold: int) {
  nx := select d_next_o_id from DISTRICT where d_w_id = w && d_id = d;
  low := select s_quantity from STOCK where s_w_id = w && s_quantity < threshold;
  return count(low.s_quantity) + nx.d_next_o_id;
}
`,
	Mix: []MixEntry{
		{Txn: "newOrder", Weight: 45, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("w", tpccW(rng, s)), iarg("d", int64(rng.Intn(10))), iarg("c", s.Key(rng)),
				iarg("item", s.Key(rng)), iarg("qty", int64(1+rng.Intn(10))))
		}},
		{Txn: "payment", Weight: 43, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("w", tpccW(rng, s)), iarg("d", int64(rng.Intn(10))), iarg("c", s.Key(rng)), iarg("amt", int64(1+rng.Intn(5000))))
		}},
		{Txn: "orderStatus", Weight: 4, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("w", tpccW(rng, s)), iarg("d", int64(rng.Intn(10))), iarg("c", s.Key(rng)), iarg("oid", int64(rng.Intn(100))))
		}},
		{Txn: "delivery", Weight: 4, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("w", tpccW(rng, s)), iarg("d", int64(rng.Intn(10))), iarg("oid", int64(rng.Intn(100))), iarg("carrier", int64(1+rng.Intn(10))))
		}},
		{Txn: "stockLevel", Weight: 4, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("w", tpccW(rng, s)), iarg("d", int64(rng.Intn(10))), iarg("threshold", int64(10+rng.Intn(10))))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		nW := warehouses(s)
		for w := 0; w < nW; w++ {
			rows = append(rows, store.TableRow{Table: "WAREHOUSE", Row: store.Row{
				"w_id": iv(int64(w)), "w_name": sv(fmt.Sprintf("w%d", w)), "w_ytd": iv(0),
			}})
			for d := 0; d < 10; d++ {
				rows = append(rows, store.TableRow{Table: "DISTRICT", Row: store.Row{
					"d_w_id": iv(int64(w)), "d_id": iv(int64(d)), "d_next_o_id": iv(100), "d_ytd": iv(0),
				}})
			}
		}
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "CUSTOMER", Row: store.Row{
					"c_w_id": iv(0), "c_d_id": iv(int64(i % 10)), "c_id": id,
					"c_name": sv(fmt.Sprintf("cust%d", i)), "c_balance": iv(0),
					"c_ytd_payment": iv(0), "c_payment_cnt": iv(0), "c_delivery_cnt": iv(0),
				}},
				store.TableRow{Table: "ITEM", Row: store.Row{
					"i_id": id, "i_name": sv(fmt.Sprintf("item%d", i)), "i_price": iv(int64(1 + i%100)),
				}},
				store.TableRow{Table: "STOCK", Row: store.Row{
					"s_w_id": iv(0), "s_i_id": id, "s_quantity": iv(100), "s_ytd": iv(0), "s_order_cnt": iv(0),
				}},
			)
		}
		return rows
	},
}

func warehouses(s Scale) int {
	s = s.orDefault()
	n := s.Records / 50
	if n < 1 {
		n = 1
	}
	return n
}

func tpccW(rng *rand.Rand, s Scale) int64 {
	return int64(rng.Intn(warehouses(s)))
}
