package server

import (
	"fmt"
	"net/http"

	"fomodel/internal/flight"
)

// respCache is the daemon's canonical-request response cache: finished
// response bodies keyed by the canonicalized request, on a flight.Cache
// with the ForgetErrors policy — concurrent requests for the same key
// block on one computation and share its bytes. It layers on top of the
// simulator's prep cache: a response hit skips everything, a response
// miss still reuses cached classification passes underneath.
//
// Only HTTP 200 responses are retained: errors and non-200 statuses are
// delivered to every request already waiting on the entry and then
// forgotten, so a canceled or failed computation never poisons later
// requests, and joining one is not a hit.
type respCache struct {
	c *flight.Cache[string, response]
}

type response struct {
	status int
	body   []byte
}

// unretained carries a non-200 response through the cache as a failure,
// so it is shared with waiters but never retained.
type unretained struct{ response }

func (u *unretained) Error() string { return fmt.Sprintf("status %d", u.status) }

func newRespCache(capacity int) respCache {
	return respCache{flight.New[string, response](capacity, flight.ForgetErrors)}
}

// Do returns the cached response for key, or runs compute once and
// caches its result. hit reports whether retained bytes were served
// without running compute. A panicking compute becomes an error.
func (c respCache) Do(key string, compute func() (status int, body []byte, err error)) (status int, body []byte, hit bool, err error) {
	r, hit, err := c.c.Do(key, func() (response, error) {
		status, body, err := compute()
		if err == nil && status != http.StatusOK {
			return response{}, &unretained{response{status, body}}
		}
		return response{status, body}, err
	})
	if u, ok := err.(*unretained); ok {
		return u.status, u.body, false, nil
	}
	return r.status, r.body, hit, err
}

// Len returns the number of cached entries (including in-flight ones).
func (c respCache) Len() int { return c.c.Len() }

// Stats returns the hit and miss counts.
func (c respCache) Stats() (hits, misses int64) {
	st := c.c.Stats()
	return st.Hits.Load(), st.Misses.Load()
}
