package main

// The qofd child process and the open-loop HTTP driver.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qof/internal/serve"
)

// moduleRoot finds the checkout: the nearest directory at or above the
// working directory that holds go.mod and cmd/qofd.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "qofd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod with cmd/qofd at or above the working directory")
		}
		dir = parent
	}
}

// buildQofd compiles the daemon under test from the checkout's source.
func buildQofd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "qofd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/qofd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building qofd: %w\n%s", err, out)
	}
	return bin, nil
}

// writeDocs puts the corpus where the child's -dir flag finds it.
func writeDocs(dir string, docs []doc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range docs {
		if err := os.WriteFile(filepath.Join(dir, d.name), []byte(d.content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// child is a running qofd. It owns a process group, so stop reaps whatever
// the daemon may have started.
type child struct {
	cmd    *exec.Cmd
	url    string
	startS float64       // exec to first /healthz 200
	exited chan struct{} // closed once Wait has returned
	stderr bytes.Buffer
}

var startupLine = regexp.MustCompile(`on (http://\S+)`)

// startChild runs `qofd -domain bibtex -shards 4 -replicas 2 -addr
// 127.0.0.1:0 -dir dir` — every other flag at its default — takes the port
// from the startup line and waits for /healthz to answer 200.
func startChild(ctx context.Context, bin, dir string, client *http.Client) (*child, error) {
	c := &child{exited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-domain", "bibtex", "-shards", "4", "-replicas", "2",
		"-addr", "127.0.0.1:0", "-dir", dir)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	c.cmd.Stderr = &c.stderr
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting qofd: %w", err)
	}
	lines := make(chan string, 1) // the one startup line, so the reader never blocks
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, stdout) // keep the pipe drained; the daemon prints nothing more
		_ = c.cmd.Wait()
		close(c.exited)
	}()
	fail := func(err error) (*child, error) {
		c.stop()
		return nil, fmt.Errorf("%w (stderr: %s)", err, strings.TrimSpace(c.stderr.String()))
	}
	select {
	case line, ok := <-lines:
		m := startupLine.FindStringSubmatch(line)
		if !ok || m == nil {
			return fail(fmt.Errorf("bench: qofd printed no startup line (got %q)", line))
		}
		c.url = m[1]
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-time.After(120 * time.Second):
		return fail(errors.New("bench: qofd did not start within 120s"))
	}
	for {
		resp, err := client.Get(c.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-c.exited:
			return fail(errors.New("bench: qofd exited before /healthz answered"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	c.startS = time.Since(start).Seconds()
	return c, nil
}

// alive reports whether the child is still running.
func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// stop kills the child's whole process group and waits until it is reaped.
// It is safe to call more than once.
func (c *child) stop() {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // fails only once the group is gone
	}
	<-c.exited
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat times; it is
// 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// cpuSeconds reads the child's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // fields 14 and 15 of the full line
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unreadable /proc stat times in %q", data)
	}
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssMB reads the child's resident set size from /proc/<pid>/status.
func (c *child) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("bench: no VmRSS in /proc status")
}

// metrics fetches the child's /metrics counters.
func (c *child) metrics(client *http.Client) (serve.MetricsBody, error) {
	var m serve.MetricsBody
	resp, err := client.Get(c.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// senders is the open-loop client count: two keep-alive connections, one
// synchronous sender goroutine each.
const senders = 2

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: senders,
		MaxConnsPerHost:     senders,
	}}
}

// requestBodies pre-encodes one POST /query body per pool query.
func requestBodies(pool []query) [][]byte {
	out := make([][]byte, len(pool))
	for i, q := range pool {
		out[i], _ = json.Marshal(serve.QueryRequest{Query: q.src}) // a string field cannot fail to encode
	}
	return out
}

// httpQuery posts one query and returns the response body once it is fully
// read. A non-200 status (a shed, a timeout) is an error.
func httpQuery(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return data, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// checkEnvelope is the daemon's per-response correctness check: the body
// decodes to a complete envelope whose hits match the fingerprint. It runs
// after the latency clock has stopped: decoding is the client's cost.
func checkEnvelope(data []byte, want fingerprint) error {
	var env serve.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	if !env.Complete {
		return fmt.Errorf("degraded envelope: %d files failed", len(env.Degraded))
	}
	return matches(fingerprintHits(envelopeHits(&env)), want)
}

// openLoopStats is what one open-loop window observed.
type openLoopStats struct {
	attempted, failed int
	firstFailure      error
	latencyMs         []float64 // from each request's due time, sorted
	lateMs            []float64 // send time minus due time, sorted
	elapsed           time.Duration
}

// openLoop sends order[i] at start+due[i] whether or not earlier requests
// have returned, from `senders` synchronous goroutines. Latency is timed
// from the due time, so a stall charges the wait it imposes on later
// requests; lateness records how far behind schedule each send was.
func openLoop(ctx context.Context, client *http.Client, url string, bodies [][]byte, order []int, due []time.Duration, expected []fingerprint) openLoopStats {
	type sample struct {
		latency, late time.Duration
		err           error
		sent          bool
	}
	samples := make([]sample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				dueAt := start.Add(due[i])
				// Timers here overshoot by up to a millisecond, which would
				// put every send behind schedule; sleep short of the due
				// time and yield through the rest.
				if wait := time.Until(dueAt) - spinWindow; wait > 0 {
					time.Sleep(wait)
				}
				for time.Now().Before(dueAt) {
					runtime.Gosched()
				}
				sent := time.Now()
				data, err := httpQuery(ctx, client, url, bodies[order[i]])
				done := time.Now()
				if err == nil {
					err = checkEnvelope(data, expected[order[i]])
				}
				samples[i] = sample{latency: done.Sub(dueAt), late: sent.Sub(dueAt), err: err, sent: true}
			}
		}()
	}
	wg.Wait()
	st := openLoopStats{elapsed: time.Since(start)}
	for i, s := range samples {
		if !s.sent { // the context ended before this request's turn
			continue
		}
		st.attempted++
		if s.err != nil {
			st.failed++
			if st.firstFailure == nil {
				st.firstFailure = fmt.Errorf("%s: %w", bodies[order[i]], s.err)
			}
		}
		st.latencyMs = append(st.latencyMs, float64(s.latency)/1e6)
		st.lateMs = append(st.lateMs, float64(s.late)/1e6)
	}
	sort.Float64s(st.latencyMs)
	sort.Float64s(st.lateMs)
	return st
}

// spinWindow is how long before a due time a sender stops sleeping and
// yields instead: a little more than the platform's timer overshoot.
const spinWindow = 1200 * time.Microsecond

// driveOpenLoop runs one open-loop window against the child. The run is
// invalid if the child exited. A generator that ran behind schedule only
// draws a warning: latency is timed from the due time, which already charges
// the wait, and a shared host's slow minute must not turn a run into an error.
func driveOpenLoop(ctx context.Context, c *child, client *http.Client, bodies [][]byte, order []int, due []time.Duration, expected []fingerprint, logf func(string, ...any)) (openLoopStats, error) {
	if len(order) == 0 {
		return openLoopStats{}, errors.New("bench: the open-loop schedule was empty")
	}
	st := openLoop(ctx, client, c.url, bodies, order, due, expected)
	if err := ctx.Err(); err != nil {
		return st, err
	}
	if !c.alive() {
		return st, fmt.Errorf("bench: invalid run: qofd exited early (stderr: %s)", strings.TrimSpace(c.stderr.String()))
	}
	logf("# generator lateness: p50 %.3f ms, p99 %.3f ms (n=%d)", quantile(st.lateMs, 0.5), quantile(st.lateMs, 0.99), len(st.lateMs))
	if st.behind() {
		logf("# warning: the generator's median lateness is over %g ms: the machine was too slow for the offered load, and latency here includes the wait", behindMs)
	}
	return st, nil
}

// behindMs is the median lateness beyond which the generator was
// systematically behind schedule, not just late in its tail.
const behindMs = 1.0

func (st openLoopStats) behind() bool {
	return quantile(st.lateMs, 0.5) > behindMs
}
