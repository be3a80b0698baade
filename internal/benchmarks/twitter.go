package benchmarks

import (
	"fmt"
	"math/rand"

	"atropos/internal/store"
)

// Twitter is the OLTP-Bench Twitter workload [18]: users, tweets and the
// follower graph. The counter increments are loggable and the duplicated
// FOLLOWS/FOLLOWERS edge pair folds into one table via redirect; the
// insert-plus-counter pattern in insertTweet is not repairable (Table 1:
// 6 → 1).
var Twitter = &Benchmark{
	Name: "Twitter",
	Source: `
table USERS {
  u_id: int key,
  u_name: string,
  u_follower_cnt: int,
  u_tweet_cnt: int,
}

table TWEETS {
  t_id: int key,
  t_u_id: int,
  t_text: string,
}

table FOLLOWS {
  f_u_id: int key,
  f_target: int key,
  f_active: bool,
}

table FOLLOWERS {
  fo_u_id: int key,
  fo_src: int key,
  fo_active: bool,
}

txn getTweet(t: int) {
  x := select t_text from TWEETS where t_id = t;
  return x.t_text;
}

txn getUserTimeline(u: int) {
  p := select u_tweet_cnt from USERS where u_id = u;
  x := select t_text from TWEETS where t_u_id = u;
  return count(x.t_text) + p.u_tweet_cnt;
}

txn insertTweet(u: int, t: int, text: string) {
  insert into TWEETS values (t_id = t, t_u_id = u, t_text = text);
  c := select u_tweet_cnt from USERS where u_id = u;
  update USERS set u_tweet_cnt = c.u_tweet_cnt + 1 where u_id = u;
}

txn follow(u: int, v: int) {
  update FOLLOWS set f_active = true where f_u_id = u && f_target = v;
  update FOLLOWERS set fo_active = true where fo_u_id = v && fo_src = u;
  c := select u_follower_cnt from USERS where u_id = v;
  update USERS set u_follower_cnt = c.u_follower_cnt + 1 where u_id = v;
}

txn getFollowers(u: int) {
  x := select fo_active from FOLLOWERS where fo_u_id = u;
  c := select u_follower_cnt from USERS where u_id = u;
  return count(x.fo_active) + c.u_follower_cnt;
}
`,
	Mix: []MixEntry{
		{Txn: "getTweet", Weight: 35, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("t", s.Key(rng)))
		}},
		{Txn: "getUserTimeline", Weight: 25, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)))
		}},
		{Txn: "insertTweet", Weight: 20, Args: func(rng *rand.Rand, s Scale) Args {
			sc := s.orDefault()
			return Bind(iarg("u", s.Key(rng)), iarg("t", int64(sc.Records+rng.Intn(1<<20))), sarg("text", fmt.Sprintf("tweet %d", rng.Intn(1000))))
		}},
		{Txn: "follow", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)), iarg("v", s.Key(rng)))
		}},
		{Txn: "getFollowers", Weight: 10, Args: func(rng *rand.Rand, s Scale) Args {
			return Bind(iarg("u", s.Key(rng)))
		}},
	},
	Rows: func(s Scale) []store.TableRow {
		s = s.orDefault()
		var rows []store.TableRow
		for i := 0; i < s.Records; i++ {
			id := iv(int64(i))
			rows = append(rows,
				store.TableRow{Table: "USERS", Row: store.Row{
					"u_id": id, "u_name": sv(fmt.Sprintf("user%d", i)),
					"u_follower_cnt": iv(0), "u_tweet_cnt": iv(1),
				}},
				store.TableRow{Table: "TWEETS", Row: store.Row{
					"t_id": id, "t_u_id": id, "t_text": sv(fmt.Sprintf("hello from %d", i)),
				}},
			)
		}
		return rows
	},
}
