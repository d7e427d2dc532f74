package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Request kinds of the controller schedule.
const (
	kindPost uint8 = iota
	kindGet
	kindGetExplain
)

// schedReq is one request of the open-loop schedule.
type schedReq struct {
	due    int64 // ns after the phase start
	tenant int32
	kind   uint8
	batch  int32 // POST: the tenant's batch index
}

// reqResult is what happened to one scheduled request. Times are ns
// after the phase start.
type reqResult struct {
	sent, done int64
	// late is how long after it could have been sent (its due time, or
	// the lane's previous completion when that was later) the request
	// went out: the generator's own lateness, not queueing.
	late   int64
	status int
	err    bool
	unsent bool
}

// latency is the request's latency from its due time.
func (r reqResult) latency(q schedReq) int64 { return r.done - q.due }

// ok reports a 2xx reply.
func (r reqResult) ok() bool { return !r.err && !r.unsent && r.status >= 200 && r.status < 300 }

// openLoop sends each lane's requests in order, each at its due time or
// as soon as the lane's previous request completes, whichever is later:
// an open loop, so a stall delays every request queued behind it on its
// lane and the delay counts in their latency from due time. Requests
// still unsent at stop (ns after start) are marked unsent. It returns
// once every lane has finished.
func openLoop(start time.Time, lanes [][]int32, reqs []schedReq, res []reqResult, stop int64,
	send func(lane int, i int32) (status int, err error)) {
	clock := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			var prevDone int64
			for k, i := range lanes[l] {
				q := reqs[i]
				now := clock()
				if q.due > now {
					waitUntil(clock, q.due)
					now = clock()
				}
				if now > stop {
					for _, j := range lanes[l][k:] {
						res[j].unsent = true
					}
					return
				}
				ready := q.due
				if prevDone > ready {
					ready = prevDone
				}
				status, err := send(l, i)
				done := clock()
				res[i] = reqResult{sent: now, done: done, late: now - ready, status: status, err: err != nil}
				prevDone = done
			}
		}(l)
	}
	wg.Wait()
}

// waitUntil blocks until clock() reaches due: a runtime sleep for the
// bulk of a long wait, a kernel sleep for the last stretch, and a yield
// loop for the final tens of microseconds the kernel would oversleep.
func waitUntil(clock func() int64, due int64) {
	const (
		runtimeSlop = int64(1500 * time.Microsecond)
		kernelSlop  = int64(60 * time.Microsecond)
	)
	if rem := due - clock(); rem > 2*runtimeSlop {
		time.Sleep(time.Duration(rem - runtimeSlop))
	}
	if rem := due - clock(); rem > 2*kernelSlop {
		fineSleep(time.Duration(rem - kernelSlop))
	}
	for clock() < due {
		runtime.Gosched()
	}
}

// fineSleep sleeps for d with the kernel's timer precision (tens of
// microseconds). The Go runtime's own timers wake an idle process at
// millisecond granularity, which would swamp sub-millisecond request
// spacing in the open-loop schedule.
func fineSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
