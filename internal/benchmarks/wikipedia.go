package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// Wikipedia is the OLTP-Bench Wikipedia workload [18]: twelve tables and
// five transactions (page reads, watchlist maintenance, page updates). The
// edit counters are loggable; the revision/text insert chain behind
// updatePage is not (Table 1: 2 → 1, 12 tables → 13 with the log).
var Wikipedia = &Benchmark{
	Name: "Wikipedia",
	Source: `
table USERACCT {
  ua_id: int key,
  ua_name: string,
  ua_touched: int,
  ua_editcount: int,
}

table USER_GROUPS {
  ug_ua_id: int key,
  ug_group: int,
}

table PAGE {
  pg_id: int key,
  pg_ns: int,
  pg_title: string,
  pg_latest: int,
  pg_touched: int,
}

table PAGE_RESTRICTIONS {
  pr_pg_id: int key,
  pr_level: int,
}

table IPBLOCKS {
  ipb_ua_id: int key,
  ipb_active: bool,
}

table REVISION {
  rev_id: int key,
  rev_pg_id: int,
  rev_text_id: int,
  rev_ua_id: int,
}

table TEXTTAB {
  old_id: int key,
  old_text: string,
}

table RECENTCHANGES {
  rc_id: int key,
  rc_pg_id: int,
  rc_ua_id: int,
}

table WATCHLIST {
  wl_ua_id: int key,
  wl_pg_id: int key,
  wl_active: bool,
}

table LOGGING {
  lg_id: int key,
  lg_pg_id: int,
  lg_ua_id: int,
}

table SITE_STATS {
  ss_id: int key,
  ss_edits: int,
}

table VALUE_BACKUP {
  vb_id: int key,
  vb_pg_id: int,
}

txn getPageAnonymous(p: int) {
  pg := select pg_latest from PAGE where pg_id = p;
  restr := select pr_level from PAGE_RESTRICTIONS where pr_pg_id = p;
  rev := select rev_text_id from REVISION where rev_id = pg.pg_latest;
  txt := select old_text from TEXTTAB where old_id = rev.rev_text_id;
  return count(txt.old_text) + restr.pr_level;
}

txn getPageAuthenticated(p: int, u: int) {
  ua := select ua_name from USERACCT where ua_id = u;
  ug := select ug_group from USER_GROUPS where ug_ua_id = u;
  ipb := select ipb_active from IPBLOCKS where ipb_ua_id = u;
  pg := select pg_latest from PAGE where pg_id = p;
  rev := select rev_text_id from REVISION where rev_id = pg.pg_latest;
  txt := select old_text from TEXTTAB where old_id = rev.rev_text_id;
  return count(txt.old_text) + ug.ug_group;
}

txn addWatchList(u: int, p: int) {
  update WATCHLIST set wl_active = true where wl_ua_id = u && wl_pg_id = p;
  update USERACCT set ua_touched = 1 where ua_id = u;
}

txn removeWatchList(u: int, p: int) {
  update WATCHLIST set wl_active = false where wl_ua_id = u && wl_pg_id = p;
  update USERACCT set ua_touched = 2 where ua_id = u;
}

txn updatePage(p: int, u: int, rid: int, tid: int, text: string) {
  insert into TEXTTAB values (old_id = tid, old_text = text);
  insert into REVISION values (rev_id = rid, rev_pg_id = p, rev_text_id = tid, rev_ua_id = u);
  update PAGE set pg_latest = rid, pg_touched = 1 where pg_id = p;
  insert into RECENTCHANGES values (rc_id = uuid(), rc_pg_id = p, rc_ua_id = u);
  insert into LOGGING values (lg_id = uuid(), lg_pg_id = p, lg_ua_id = u);
  insert into VALUE_BACKUP values (vb_id = uuid(), vb_pg_id = p);
  ec := select ua_editcount from USERACCT where ua_id = u;
  update USERACCT set ua_editcount = ec.ua_editcount + 1 where ua_id = u;
  ss := select ss_edits from SITE_STATS where ss_id = 0;
  update SITE_STATS set ss_edits = ss.ss_edits + 1 where ss_id = 0;
}
`,
	Mix: []MixEntry{
		{Txn: "getPageAnonymous", Weight: 55, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("p", s.Key(rng)))
		}},
		{Txn: "getPageAuthenticated", Weight: 25, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("p", s.Key(rng)), iarg("u", s.Key(rng)))
		}},
		{Txn: "addWatchList", Weight: 5, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("p", s.Key(rng)))
		}},
		{Txn: "removeWatchList", Weight: 5, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("p", s.Key(rng)))
		}},
		{Txn: "updatePage", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			fresh := int64(sc.Records + rng.Intn(1<<20))
			return Bind(iarg("p", s.Key(rng)), iarg("u", s.Key(rng)), iarg("rid", fresh), iarg("tid", fresh),
				sarg("text", fmt.Sprintf("revision %d", fresh)))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		rows = append(rows, store.TableRow{Table: "SITE_STATS", Row: store.Row{"ss_id": iv(0), "ss_edits": iv(0)}})
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "USERACCT", Row: store.Row{
					"ua_id": id, "ua_name": sv(fmt.Sprintf("user%d", i)), "ua_touched": iv(0), "ua_editcount": iv(0),
				}},
				store.TableRow{Table: "USER_GROUPS", Row: store.Row{"ug_ua_id": id, "ug_group": iv(int64(i % 3))}},
				store.TableRow{Table: "PAGE", Row: store.Row{
					"pg_id": id, "pg_ns": iv(0), "pg_title": sv(fmt.Sprintf("Page %d", i)),
					"pg_latest": id, "pg_touched": iv(0),
				}},
				store.TableRow{Table: "PAGE_RESTRICTIONS", Row: store.Row{"pr_pg_id": id, "pr_level": iv(0)}},
				store.TableRow{Table: "REVISION", Row: store.Row{
					"rev_id": id, "rev_pg_id": id, "rev_text_id": id, "rev_ua_id": iv(0),
				}},
				store.TableRow{Table: "TEXTTAB", Row: store.Row{"old_id": id, "old_text": sv(fmt.Sprintf("content %d", i))}},
			)
		}
		return rows
	},
}
