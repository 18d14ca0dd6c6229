// Package twitter implements the paper's Twitter clone (§5.1.2): user
// timelines materialise tweets eagerly (a tweet is written to every
// follower's timeline), which makes referential integrity the dominant
// invariant — timeline entries must reference existing tweets by existing
// users.
//
// Three variants reproduce the strategies of the paper's Fig. 6:
//
//   - Causal: unmodified; concurrent deletes leave dangling timeline
//     entries.
//   - AddWins: tweet/retweet touch the author (and the original tweet on
//     retweet), so the restoring write wins: a concurrently deleted tweet
//     is recovered, a concurrently removed user is revived. Writers pay.
//   - RemWins: deletions win. A removed user's history is purged from all
//     timelines with wildcard rem-wins removes; a deleted tweet's
//     retweets are hidden lazily — a timeline read filters entries whose
//     tweet is gone and commits the cleanup as a compensation. Readers pay.
package twitter

import (
	"fmt"

	"ipa/internal/crdt"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
)

// Object keys.
const (
	KeyUsers   = "twitter/users"
	KeyTweets  = "twitter/tweets"
	KeyFollows = "twitter/follows"
)

// TimelineKey returns the timeline object key of a user.
func TimelineKey(user string) string { return "twitter/timeline/" + user }

// SpecSource is the application specification used by the analysis.
const SpecSource = `
spec twitter

invariant forall (Tweet: w, User: u) :- inTimeline(w, u) => tweet(w) and user(u)
invariant forall (Tweet: w) :- tweet(w) => author(w)
invariant forall (User: a, User: b) :- follows(a, b) => user(a) and user(b)

tag unique-ids

operation add_user(User: u) {
    user(u) := true
}
operation rem_user(User: u) {
    user(u) := false
}
operation tweet(Tweet: w, User: u) {
    tweet(w) := true
    author(w) := true
    inTimeline(w, u) := true
}
operation retweet(Tweet: w, User: u) {
    inTimeline(w, u) := true
}
operation del_tweet(Tweet: w) {
    tweet(w) := false
}
operation follow(User: a, User: b) {
    follows(a, b) := true
}
operation unfollow(User: a, User: b) {
    follows(a, b) := false
}
`

// Spec parses and returns the specification.
func Spec() *spec.Spec { return spec.MustParse(SpecSource) }

// Strategy selects the conflict-resolution flavour (paper Fig. 6).
type Strategy int

// Strategies.
const (
	Causal Strategy = iota
	AddWins
	RemWins
)

func (s Strategy) String() string {
	switch s {
	case AddWins:
		return "add-wins"
	case RemWins:
		return "rem-wins"
	}
	return "causal"
}

// App executes Twitter operations against a replicated store. Timeline
// entries are (tweetID, author) tuples; tweets are (tweetID, author)
// tuples with the text as payload.
type App struct {
	strategy Strategy
}

// New creates an application instance with the given strategy.
func New(strategy Strategy) *App { return &App{strategy: strategy} }

// Strategy returns the configured strategy.
func (a *App) Strategy() Strategy { return a.strategy }

// tweetElem encodes a tweet set element.
func tweetElem(id, author string) string { return crdt.JoinTuple(id, author) }

// timelineEntry encodes a timeline entry.
func timelineEntry(id, author string) string { return crdt.JoinTuple(id, author) }

// users returns the right set flavour for the strategy: rem-wins removal
// semantics need an RWSet.
func (a *App) usersRef(tx *store.Txn) interface {
	Add(string, string)
	Touch(string)
	Remove(string)
	Contains(string) bool
	Elems() []string
} {
	if a.strategy == RemWins {
		r := store.RWSetAt(tx, KeyUsers)
		return rwAdapter{r}
	}
	r := store.AWSetAt(tx, KeyUsers)
	return awAdapter{r}
}

type awAdapter struct{ store.AWSetRef }

func (x awAdapter) Add(e, p string)        { x.AWSetRef.Add(e, p) }
func (x awAdapter) Touch(e string)         { x.AWSetRef.Touch(e) }
func (x awAdapter) Remove(e string)        { x.AWSetRef.Remove(e) }
func (x awAdapter) Contains(e string) bool { return x.AWSetRef.Contains(e) }
func (x awAdapter) Elems() []string        { return x.AWSetRef.Elems() }

type rwAdapter struct{ store.RWSetRef }

func (x rwAdapter) Add(e, p string)        { x.RWSetRef.Add(e, p) }
func (x rwAdapter) Touch(e string)         { x.RWSetRef.Touch(e) }
func (x rwAdapter) Remove(e string)        { x.RWSetRef.Remove(e) }
func (x rwAdapter) Contains(e string) bool { return x.RWSetRef.Contains(e) }
func (x rwAdapter) Elems() []string        { return x.RWSetRef.Elems() }

// AddUser registers a user.
func (a *App) AddUser(r runtime.Replica, u string) *store.Txn {
	tx := r.Begin()
	a.usersRef(tx).Add(u, "profile:"+u)
	tx.Commit()
	return tx
}

// RemUser removes a user. The strategies differ on what happens to the
// user's published history (paper §5.1.2, Fig. 6):
//
//   - RemWins purges it everywhere — the user's tweets and every timeline
//     entry referencing them — with wildcard rem-wins removes that also
//     defeat concurrent retweets. Author referential integrity is
//     guaranteed, and rem_user is the expensive operation.
//   - Causal/AddWins only remove the account: published tweets outlive
//     it (the add-wins answer: content referenced by timelines is kept,
//     and a concurrent tweet even revives the account). rem_user stays
//     cheap; timelines never dangle on TWEETS, only the author link ages.
func (a *App) RemUser(r runtime.Replica, u string) *store.Txn {
	tx := r.Begin()
	users := a.usersRef(tx)
	if a.strategy == RemWins {
		for _, other := range users.Elems() {
			store.RWSetAt(tx, TimelineKey(other)).RemoveWhere(crdt.MatchPattern("", u))
		}
		store.AWSetAt(tx, KeyTweets).RemoveWhere(crdt.MatchPattern("", u))
	}
	users.Remove(u)
	tx.Commit()
	return tx
}

// followersOf lists the followers of u in the transaction's view.
func followersOf(tx *store.Txn, u string) []string {
	pairs := store.AWSetAt(tx, KeyFollows).ElemsWhere(crdt.MatchPattern("", u))
	out := make([]string, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, crdt.SplitTuple(p)[0])
	}
	return out
}

// timelineAdd appends an entry to one user's timeline (set flavour depends
// on the strategy so the RemWins wildcard purge can defeat concurrent
// inserts).
func (a *App) timelineAdd(tx *store.Txn, user, id, author string) {
	if a.strategy == RemWins {
		store.RWSetAt(tx, TimelineKey(user)).Add(timelineEntry(id, author), "")
	} else {
		store.AWSetAt(tx, TimelineKey(user)).Add(timelineEntry(id, author), "")
	}
}

// Tweet posts a new tweet and fans it out to the author's followers (and
// the author's own timeline). Precondition: the author exists at the
// origin.
func (a *App) Tweet(r runtime.Replica, author, id, text string) *store.Txn {
	tx := r.Begin()
	if a.usersRef(tx).Contains(author) {
		store.AWSetAt(tx, KeyTweets).Add(tweetElem(id, author), text)
		a.timelineAdd(tx, author, id, author)
		for _, f := range followersOf(tx, author) {
			a.timelineAdd(tx, f, id, author)
		}
		if a.strategy == AddWins {
			a.usersRef(tx).Touch(author)
		}
	}
	tx.Commit()
	return tx
}

// Retweet pushes an existing tweet to the retweeting user's followers.
// Preconditions: the retweeter and the tweet exist at the origin. Under
// AddWins the original tweet and its author are restored if removed
// concurrently (paper: "recover the deleted tweet").
func (a *App) Retweet(r runtime.Replica, user, id, origAuthor string) *store.Txn {
	tx := r.Begin()
	if a.usersRef(tx).Contains(user) && store.AWSetAt(tx, KeyTweets).Contains(tweetElem(id, origAuthor)) {
		a.timelineAdd(tx, user, id, origAuthor)
		for _, f := range followersOf(tx, user) {
			a.timelineAdd(tx, f, id, origAuthor)
		}
		if a.strategy == AddWins {
			store.AWSetAt(tx, KeyTweets).Touch(tweetElem(id, origAuthor))
			a.usersRef(tx).Touch(user)
			a.usersRef(tx).Touch(origAuthor)
		}
	}
	tx.Commit()
	return tx
}

// DelTweet deletes a tweet. Under RemWins the dangling timeline entries
// are hidden lazily by ReadTimeline's compensation.
func (a *App) DelTweet(r runtime.Replica, id, author string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyTweets).Remove(tweetElem(id, author))
	tx.Commit()
	return tx
}

// Follow subscribes follower to followee's tweets.
func (a *App) Follow(r runtime.Replica, follower, followee string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyFollows).Add(crdt.JoinTuple(follower, followee), "")
	if a.strategy == AddWins {
		a.usersRef(tx).Touch(follower)
		a.usersRef(tx).Touch(followee)
	}
	tx.Commit()
	return tx
}

// Unfollow removes the subscription.
func (a *App) Unfollow(r runtime.Replica, follower, followee string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyFollows).Remove(crdt.JoinTuple(follower, followee))
	tx.Commit()
	return tx
}

// ReadTimeline returns the visible tweets of a user's timeline. Under
// RemWins, entries whose tweet was deleted (or whose author was removed)
// are compensated away: hidden from the result and removed from the
// timeline in the same transaction (paper §5.2.3 — the read-side cost of
// the rem-wins strategy).
func (a *App) ReadTimeline(r runtime.Replica, user string) ([]string, *store.Txn) {
	tx := r.Begin()
	var visible []string
	tweets := store.AWSetAt(tx, KeyTweets)
	if a.strategy == RemWins {
		tl := store.RWSetAt(tx, TimelineKey(user))
		users := store.RWSetAt(tx, KeyUsers)
		for _, entry := range tl.Elems() {
			parts := crdt.SplitTuple(entry)
			id, author := parts[0], parts[1]
			if tweets.Contains(tweetElem(id, author)) && users.Contains(author) {
				visible = append(visible, entry)
			} else {
				tl.Remove(entry) // compensation: committed with this read
			}
		}
	} else {
		tl := store.AWSetAt(tx, TimelineKey(user))
		for _, entry := range tl.Elems() {
			visible = append(visible, entry)
		}
	}
	tx.Commit()
	return visible, tx
}

// Violations reports referential-integrity violations visible at replica
// r: timeline entries whose tweet no longer exists, and — under RemWins,
// the only strategy that promises it — entries whose author was removed.
// Under RemWins, entries that a timeline read would compensate away are
// not counted as violations for the *visible* state; the raw flag selects
// the uncompensated view.
func (a *App) Violations(r runtime.Replica, raw bool) []string {
	tx := r.Begin()
	defer tx.Commit()
	tweets := store.AWSetAt(tx, KeyTweets)

	var userSet interface{ Contains(string) bool }
	var allUsers []string
	if a.strategy == RemWins {
		u := store.RWSetAt(tx, KeyUsers)
		userSet, allUsers = u, u.Elems()
	} else {
		u := store.AWSetAt(tx, KeyUsers)
		userSet, allUsers = u, u.Elems()
	}

	var out []string
	check := func(owner string, entries []string) {
		for _, entry := range entries {
			parts := crdt.SplitTuple(entry)
			id, author := parts[0], parts[1]
			if !tweets.Contains(tweetElem(id, author)) {
				out = append(out, fmt.Sprintf("timeline(%s): tweet %s deleted", owner, id))
			}
			if a.strategy == RemWins && !userSet.Contains(author) {
				out = append(out, fmt.Sprintf("timeline(%s): author %s removed", owner, author))
			}
		}
	}
	for _, u := range allUsers {
		if a.strategy == RemWins {
			entries := store.RWSetAt(tx, TimelineKey(u)).Elems()
			if !raw {
				// The visible state is what a compensated read returns:
				// entries with live tweet and author. Verify that filter
				// indeed leaves nothing dangling (without mutating).
				var visible []string
				for _, entry := range entries {
					parts := crdt.SplitTuple(entry)
					if tweets.Contains(tweetElem(parts[0], parts[1])) && userSet.Contains(parts[1]) {
						visible = append(visible, entry)
					}
				}
				entries = visible
			}
			check(u, entries)
		} else {
			check(u, store.AWSetAt(tx, TimelineKey(u)).Elems())
		}
	}
	return out
}
