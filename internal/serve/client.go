package serve

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// clientSeq distinguishes clients within one process, so generated request
// ids stay unique across every Client a test (or load generator) dials.
var clientSeq atomic.Int64

// Client is a multiplexing client for the serve protocol: any number of
// goroutines may call Acquire/Release/Stats concurrently on one connection.
// A writer mutex serializes frames out; a reader goroutine routes response
// frames back to the waiting caller by request id.
type Client struct {
	conn net.Conn
	wmu  sync.Mutex

	mu      sync.Mutex
	pending map[string]chan Response
	err     error // terminal read error, once the reader exits

	prefix string
	seq    atomic.Int64
}

// Lease is one granted lease as seen by the client.
type Lease struct {
	ID      string
	Units   int
	Process int
}

// Dial connects to a serve server. The returned client owns the connection;
// Close releases it (but not any leases still held — those expire by TTL
// unless released first).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[string]chan Response),
		prefix:  fmt.Sprintf("c%d", clientSeq.Add(1)),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		body, err := ReadFrame(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("serve: connection lost: %w", err))
			return
		}
		resp, perr := parseResponse(body)
		if perr != nil {
			c.fail(perr)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- *resp
		}
		// A response with no waiter (or no id) is dropped: it answers a
		// request whose caller already gave up.
	}
}

// fail terminates every in-flight call with err and poisons future ones.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// nextID generates a request id unique across all Clients in this process.
func (c *Client) nextID() string {
	return fmt.Sprintf("%s-%d", c.prefix, c.seq.Add(1))
}

// Do sends req and waits for its response frame. The request must carry an
// id; Do correlates by it. A connection failure returns the terminal error.
func (c *Client) Do(req Request) (Response, error) {
	if req.ID == "" {
		return Response{}, fmt.Errorf("serve: request without id")
	}
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Response{}, err
	}
	if _, dup := c.pending[req.ID]; dup {
		c.mu.Unlock()
		return Response{}, fmt.Errorf("serve: request id %q already in flight on this client", req.ID)
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := WriteFrame(c.conn, req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return Response{}, err
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("serve: connection closed")
		}
		return Response{}, err
	}
	return resp, nil
}

// Acquire leases units resource units. A non-zero deadline bounds the wait
// for the grant: ErrDeadline is answered at the deadline, whether the
// acquire is still queued behind its process's open cycle or already waits
// on the protocol in one. Deadline 0 waits indefinitely. The error is one
// of the Err… sentinels for protocol rejections (errors.Is(err,
// ErrOverload) etc.) or a transport error.
func (c *Client) Acquire(units int, deadline time.Duration) (*Lease, error) {
	return c.AcquireID(c.nextID(), units, deadline.Milliseconds(), 0)
}

// AcquireID is Acquire with an explicit request id and lease TTL — the
// idempotence surface: retrying with the same id inside the dedupe window
// returns the original grant instead of a second lease.
func (c *Client) AcquireID(id string, units int, deadlineMS, leaseMS int64) (*Lease, error) {
	resp, err := c.Do(Request{Op: OpAcquire, ID: id, Units: units, DeadlineMS: deadlineMS, LeaseMS: leaseMS})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("%w (%s)", CodeErr(resp.Err), resp.Detail)
	}
	return &Lease{ID: resp.Lease, Units: resp.Units, Process: resp.Process}, nil
}

// Release hands a lease back. Releasing an unknown (already released or
// expired) lease succeeds — release is idempotent.
func (c *Client) Release(leaseID string) error {
	resp, err := c.Do(Request{Op: OpRelease, ID: c.nextID(), Lease: leaseID})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%w (%s)", CodeErr(resp.Err), resp.Detail)
	}
	return nil
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.Do(Request{Op: OpStats, ID: c.nextID()})
	if err != nil {
		return nil, err
	}
	if !resp.OK || resp.Stats == nil {
		return nil, fmt.Errorf("%w (%s)", CodeErr(resp.Err), resp.Detail)
	}
	return resp.Stats, nil
}

// Close drops the connection; in-flight calls fail, held leases expire by TTL.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(fmt.Errorf("serve: client closed"))
	return err
}
