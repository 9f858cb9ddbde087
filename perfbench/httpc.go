package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server. Requests are
// written by hand and responses parsed with net/http, so a request costs
// the generator one write, one read and one JSON decode — no per-request
// goroutines or transport bookkeeping. On hot-small on a 2-vCPU host,
// net/http.Client with one single-connection Transport per worker took
// about 45% more generator CPU (9.7–10.1 s against 6.6–6.9 s over a run),
// which the server lost: sat_sessions_per_s fell by about 23%.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64*1024)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends one request and returns the status and body. Any transport
// error leaves the connection unusable; the caller redials.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.buf = c.buf[:0]
	c.buf = append(c.buf, method...)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, path...)
	c.buf = append(c.buf, " HTTP/1.1\r\nHost: "...)
	c.buf = append(c.buf, c.addr...)
	c.buf = append(c.buf, "\r\n"...)
	if body != nil {
		c.buf = append(c.buf, "Content-Type: application/json\r\nContent-Length: "...)
		c.buf = strconv.AppendInt(c.buf, int64(len(body)), 10)
		c.buf = append(c.buf, "\r\n"...)
	}
	c.buf = append(c.buf, "\r\n"...)
	c.buf = append(c.buf, body...)
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(c.buf); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// getJSON fetches path and decodes a 200 response into v.
func (c *conn) getJSON(path string, v any) error {
	code, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// Wire shapes of fbserve's session endpoints, limited to what the
// generator reads.
type wireResult struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
	Category string  `json:"category"`
}

type wireState struct {
	Session   uint64       `json:"session"`
	K         int          `json:"k"`
	Results   []wireResult `json:"results"`
	Converged bool         `json:"converged"`
	CacheHit  bool         `json:"cache_hit"`
	Warm      bool         `json:"warm"`
}

type wireClose struct {
	Session    uint64 `json:"session"`
	Iterations int    `json:"iterations"`
	Inserted   bool   `json:"inserted"`
}

func queryBody(item, k int) []byte {
	b := append([]byte(`{"item":`), strconv.Itoa(item)...)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	return append(b, '}')
}

func feedbackBody(session uint64, scores []float64) []byte {
	b := append([]byte(`{"session":`), strconv.FormatUint(session, 10)...)
	b = append(b, `,"scores":[`...)
	for i, s := range scores {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, s, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

func closeBody(session uint64) []byte {
	b := append([]byte(`{"session":`), strconv.FormatUint(session, 10)...)
	return append(b, '}')
}
