package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Operation kinds, each timed separately.
const (
	opOpen = iota
	opFeedback
	opClose
	numOps
)

var opNames = [numOps]string{"open", "feedback", "close"}
var opPaths = [numOps]string{"/query", "/feedback", "/close"}

// sessionRun is one session in flight: the oracle plays it with the
// query item's category as ground truth.
type sessionRun struct {
	plan      plannedSession
	cat       string
	id        uint64
	rounds    int
	page      []int     // indices of the current result page
	opened    time.Time // when the session's first request was due
	waited    time.Duration
	precision float64
}

// request is one due HTTP request of a session.
type request struct {
	s   *sessionRun
	op  int
	due time.Time
}

// coldPage is the first page of a session the server served cold
// (warm=false), kept for the exact-scan check.
type coldPage struct {
	Item    int
	Results []wireResult
}

// recorder accumulates one worker's measurements; workers merge theirs
// at the end, so the hot path takes no locks.
type recorder struct {
	lat       [numOps][]float64 // seconds from due to response
	sendLat   [numOps][]float64 // seconds from send to response
	due       [numOps][]int64   // when each timed request was due, Unix ns
	wait      []float64         // per session: sum of its request latencies
	waitDue   []int64           // per session: when its first request was due, Unix ns
	rounds    []float64         // per session: feedback requests
	precision []float64         // per session: oracle precision of the first page
	attempted int
	failed    int
	ops       [numOps]int // successful requests
	cold      []coldPage
	problems  []string
}

func (r *recorder) merge(o *recorder) {
	for op := 0; op < numOps; op++ {
		r.lat[op] = append(r.lat[op], o.lat[op]...)
		r.sendLat[op] = append(r.sendLat[op], o.sendLat[op]...)
		r.due[op] = append(r.due[op], o.due[op]...)
		r.ops[op] += o.ops[op]
	}
	r.wait = append(r.wait, o.wait...)
	r.waitDue = append(r.waitDue, o.waitDue...)
	r.rounds = append(r.rounds, o.rounds...)
	r.precision = append(r.precision, o.precision...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.cold = append(r.cold, o.cold...)
	r.problems = append(r.problems, o.problems...)
}

func (r *recorder) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// client is one generator worker: one keep-alive connection and its
// recorder.
type client struct {
	addr      string
	conn      *conn
	labels    []string
	k         int
	coldLimit int
	rec       recorder
}

func newClient(addr string, labels []string, k, coldLimit int) (*client, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &client{addr: addr, conn: c, labels: labels, k: k, coldLimit: coldLimit}, nil
}

func (c *client) close() { _ = c.conn.Close() }

// checkPage verifies a result page: min(k, rows) entries, ascending by
// distance with ties by ascending index, labels matching the prepared
// ones where the server reports labels.
func (c *client) checkPage(res []wireResult) bool {
	want := min(c.k, len(c.labels))
	if len(res) != want {
		c.rec.problem("result page has %d entries, want %d", len(res), want)
		return false
	}
	for i, r := range res {
		if r.Index < 0 || r.Index >= len(c.labels) {
			c.rec.problem("result index %d out of range", r.Index)
			return false
		}
		if r.Category != "" && r.Category != c.labels[r.Index] {
			c.rec.problem("item %d labelled %q, prepared label %q", r.Index, r.Category, c.labels[r.Index])
			return false
		}
		if i > 0 {
			p := res[i-1]
			if r.Distance < p.Distance || (r.Distance == p.Distance && r.Index <= p.Index) {
				c.rec.problem("result page not sorted at position %d", i)
				return false
			}
		}
	}
	return true
}

// exec sends the session's next request, due at due. It returns the
// next operation of the session, or -1 when the session has ended
// (closed, or abandoned after a failure).
func (c *client) exec(s *sessionRun, op int, due time.Time) int {
	var body []byte
	switch op {
	case opOpen:
		body = queryBody(s.plan.Item, c.k)
	case opFeedback:
		body = feedbackBody(s.id, oracleScores(c.labels, s.cat, s.page))
	case opClose:
		body = closeBody(s.id)
	}
	c.rec.attempted++
	sent := time.Now()
	code, data, err := c.conn.do(http.MethodPost, opPaths[op], body)
	done := time.Now()
	if err != nil {
		c.rec.failed++
		c.rec.problem("%s: %v", opNames[op], err)
		if nc, derr := dial(c.addr); derr == nil {
			_ = c.conn.Close()
			c.conn = nc
		}
		return -1
	}
	if code != http.StatusOK {
		c.rec.failed++
		c.rec.problem("%s: status %d: %s", opNames[op], code, data)
		return -1
	}
	lat := done.Sub(due)
	c.rec.lat[op] = append(c.rec.lat[op], lat.Seconds())
	c.rec.sendLat[op] = append(c.rec.sendLat[op], done.Sub(sent).Seconds())
	c.rec.due[op] = append(c.rec.due[op], due.UnixNano())
	c.rec.ops[op]++
	s.waited += lat

	if op == opClose {
		var cl wireClose
		if err := json.Unmarshal(data, &cl); err != nil || cl.Session != s.id {
			c.rec.problem("close of session %d: bad reply %s", s.id, data)
			c.rec.failed++
			return -1
		}
		c.rec.wait = append(c.rec.wait, s.waited.Seconds())
		c.rec.waitDue = append(c.rec.waitDue, s.opened.UnixNano())
		c.rec.rounds = append(c.rec.rounds, float64(s.rounds))
		c.rec.precision = append(c.rec.precision, s.precision)
		return -1
	}
	var st wireState
	if err := json.Unmarshal(data, &st); err != nil {
		c.rec.problem("%s: decoding reply: %v", opNames[op], err)
		c.rec.failed++
		return -1
	}
	if !c.checkPage(st.Results) {
		c.rec.failed++
		return -1
	}
	s.page = s.page[:0]
	for _, r := range st.Results {
		s.page = append(s.page, r.Index)
	}
	if op == opOpen {
		s.id = st.Session
		s.opened = due
		good := 0.0
		for _, sc := range oracleScores(c.labels, s.cat, s.page) {
			good += sc
		}
		s.precision = good / float64(c.k)
		if !st.Warm && len(c.rec.cold) < c.coldLimit {
			c.rec.cold = append(c.rec.cold, coldPage{Item: s.plan.Item, Results: st.Results})
		}
	} else {
		s.rounds++
	}
	if st.Converged {
		return opClose
	}
	return opFeedback
}

// reqHeap orders due requests by due time.
type reqHeap []request

func (h reqHeap) Len() int           { return len(h) }
func (h reqHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h reqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *reqHeap) Push(x any)        { *h = append(*h, x.(request)) }
func (h *reqHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// openLoopResult is what the open-loop phase measured.
type openLoopResult struct {
	rec   recorder
	late  []float64 // seconds the generator dispatched after a request was due
	start time.Time // when the schedule's offsets count from
}

// runOpenLoop plays the script: sessions arrive at their scheduled
// offsets from start, and each next request of a session is due a think
// time after the previous response. One dispatcher hands due requests to
// the workers, each owning one keep-alive connection; a request waiting
// for a free connection is waiting on the system, and that wait counts
// in its latency. The phase ends when every session has closed, or fails
// after drain past the last arrival.
func runOpenLoop(clients []*client, plan []plannedSession, labels []string, seed uint64, think time.Duration, drain time.Duration) (openLoopResult, error) {
	var (
		mu      sync.Mutex
		h       reqHeap
		pending = len(plan)
		notify  = make(chan struct{}, 1)
		ready   = make(chan request)
	)
	start := time.Now().Add(20 * time.Millisecond)
	for _, p := range plan {
		s := &sessionRun{plan: p, cat: labels[p.Item]}
		h = append(h, request{s: s, op: opOpen, due: start.Add(p.Arrival)})
	}
	heap.Init(&h)
	wake := func() {
		select {
		case notify <- struct{}{}:
		default:
		}
	}

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for r := range ready {
				next := c.exec(r.s, r.op, r.due)
				mu.Lock()
				if next < 0 {
					pending--
				} else {
					// The think time before a session's n-th request
					// depends only on the seed, the session and n.
					due := time.Now().Add(thinkTime(seed, r.s.plan.Index, r.s.rounds+1, think))
					heap.Push(&h, request{s: r.s, op: next, due: due})
				}
				mu.Unlock()
				wake()
			}
		}(c)
	}

	var late []float64
	var lastArrival time.Duration
	if len(plan) > 0 {
		lastArrival = plan[len(plan)-1].Arrival
	}
	deadline := start.Add(lastArrival + drain)
	timer := time.NewTimer(time.Hour)
	freeSince := start
	var err error
	for {
		mu.Lock()
		if pending > 0 && time.Now().After(deadline) {
			err = fmt.Errorf("open loop: %d sessions still open %v after the last arrival", pending, drain)
			mu.Unlock()
			break
		}
		if len(h) == 0 {
			finished := pending == 0
			mu.Unlock()
			if finished {
				break
			}
			select {
			case <-notify:
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		top := h[0]
		now := time.Now()
		if wait := top.due.Sub(now); wait > 0 {
			mu.Unlock()
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-notify:
				if !timer.Stop() {
					<-timer.C
				}
			}
			continue
		}
		heap.Pop(&h)
		mu.Unlock()
		ref := top.due
		if freeSince.After(ref) {
			ref = freeSince
		}
		late = append(late, now.Sub(ref).Seconds())
		ready <- top
		freeSince = time.Now()
	}
	close(ready)
	wg.Wait()
	timer.Stop()

	out := openLoopResult{late: late, start: start}
	for _, c := range clients {
		out.rec.merge(&c.rec)
		c.rec = recorder{}
	}
	return out, err
}

// runClosedLoop plays n sessions back to back with zero think time,
// spread over every client, and returns how long they took. A fixed
// session count, not a fixed time, keeps the state the phase leaves in
// the server (learned tree, journal) the same however fast the host runs.
func runClosedLoop(clients []*client, items *itemSampler, labels []string, n int) (time.Duration, recorder) {
	var mu sync.Mutex
	started := 0
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if started == n {
			return 0, false
		}
		started++
		return items.next(), true
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for item, ok := next(); ok; item, ok = next() {
				s := &sessionRun{plan: plannedSession{Item: item}, cat: labels[item]}
				for op := opOpen; op >= 0; {
					op = c.exec(s, op, time.Now())
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var rec recorder
	for _, c := range clients {
		rec.merge(&c.rec)
		c.rec = recorder{}
	}
	return elapsed, rec
}

// sortedCold orders cold pages by item so checks are reproducible.
func sortedCold(pages []coldPage, limit int) []coldPage {
	sort.SliceStable(pages, func(i, j int) bool { return pages[i].Item < pages[j].Item })
	if len(pages) > limit {
		pages = pages[:limit]
	}
	return pages
}
