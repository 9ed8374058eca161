package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sseFrame is the part of a /watch frame the client checks and times.
type sseFrame struct {
	Version     uint64                    `json:"version"`
	PublishedAt time.Time                 `json:"publishedAt"`
	Full        bool                      `json:"full"`
	Rows        map[string]map[string]any `json:"rows"`
	Evicted     bool                      `json:"evicted"`
}

// sseEvent is one frame as a subscriber goroutine decoded it, or the
// error that ended its stream.
type sseEvent struct {
	sub     int
	frame   sseFrame
	decoded time.Time
	bytes   int
	err     error
}

// server is one spawned `wrangle -serve` child.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  sync.WaitGroup
}

// buildServer compiles cmd/wrangle into the scratch directory. Building
// is not part of set-up: a user starts a binary that already exists.
func buildServer(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "wrangle"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/wrangle").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build repro/cmd/wrangle: %v\n%s", err, out)
	}
	return bin, nil
}

// startServer spawns the child and waits for its listen address. The
// ticker is set far below a reaction's cost, so it saturates and the
// server refreshes back to back. The child generates its own universe;
// like the in-process tiers it gets the fixed dataset seed, and the run's
// seed moves the one input the CLI exposes, the churn rate, by up to a
// tenth around 0.05.
func startServer(bin string, seed int64, sources int) (*server, error) {
	churn := 0.05 * (1 + (float64(uint64(seed)%21)-10)/100)
	cmd := exec.Command(bin, "-serve", "-listen", "127.0.0.1:0", "-refresh-every", "1ms",
		"-churn", strconv.FormatFloat(churn, 'f', 4, 64), "-sources", strconv.Itoa(sources), "-seed", strconv.Itoa(datasetSeed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sv := &server{cmd: cmd}
	addr := make(chan string, 1)
	sv.out.Add(1)
	go func() {
		// Drains the child's stdout to EOF so it never blocks on a full pipe.
		defer sv.out.Done()
		r := bufio.NewReader(stdout)
		sent := false
		for {
			line, err := r.ReadString('\n')
			if rest, ok := strings.CutPrefix(line, "serving on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
			if err != nil {
				if !sent {
					close(addr)
				}
				return
			}
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			sv.stop()
			return nil, fmt.Errorf("server exited before listening")
		}
		sv.base = a
		return sv, nil
	case <-time.After(60 * time.Second):
		sv.stop()
		return nil, fmt.Errorf("server did not listen within 60s")
	}
}

// stop interrupts the child, waits for it to exit (killing it if it does
// not) and returns its CPU time and peak RSS.
func (sv *server) stop() (cpu time.Duration, rssKB int64) {
	_ = sv.cmd.Process.Signal(os.Interrupt)
	exited := make(chan struct{})
	go func() {
		sv.out.Wait()
		// A non-zero exit after SIGINT is still an exit.
		_ = sv.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = sv.cmd.Process.Kill()
		<-exited
	}
	if ps := sv.cmd.ProcessState; ps != nil {
		cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			rssKB = ru.Maxrss
		}
	}
	return cpu, rssKB
}

// subscribe opens one /watch stream and decodes its frames on a
// goroutine until the stream ends; every frame (or the terminal error)
// is sent on events. Closing the returned body ends the goroutine.
func subscribe(base string, sub int, events chan<- sseEvent, wg *sync.WaitGroup) (io.Closer, error) {
	resp, err := http.Get(base + "/watch")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /watch: %s", resp.Status)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := bufio.NewReaderSize(resp.Body, 1<<16)
		var data []byte
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				return // stream closed: by us, or by the server draining
			}
			switch {
			case bytes.HasPrefix(line, []byte("data: ")):
				data = append(data[:0], bytes.TrimSpace(line[len("data: "):])...)
			case len(bytes.TrimSpace(line)) == 0 && data != nil:
				ev := sseEvent{sub: sub, bytes: len(data)}
				ev.err = json.Unmarshal(data, &ev.frame)
				ev.decoded = time.Now()
				data = nil
				events <- ev
			}
		}
	}()
	return resp.Body, nil
}

// rowsDigest fingerprints a frame's rows; encoding/json sorts map keys,
// so the digest does not depend on decode order.
func rowsDigest(rows map[string]map[string]any) string {
	buf, _ := json.Marshal(rows) // maps of JSON-decoded values always marshal
	h := fnv.New64a()
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

const (
	sseSubscribers = 2
	// sseFingerprintAt is the version whose frame is fingerprinted: the
	// server's ticks are sequential, so version N is the same table on
	// every run of a seed, however fast the run was.
	sseFingerprintAt = 16
)

// sseClient is a server with its subscribers attached and anchored.
type sseClient struct {
	sv      *server
	events  chan sseEvent
	bodies  []io.Closer
	wg      sync.WaitGroup
	anchors []sseEvent

	stopped    sync.Once
	childCPU   time.Duration // the server's, once torn down
	childRSSKB int64
}

// teardown closes the streams, stops the server and waits for the
// subscriber goroutines. Calling it again is a no-op.
func (c *sseClient) teardown() {
	c.stopped.Do(func() {
		for _, b := range c.bodies {
			b.Close()
		}
		c.childCPU, c.childRSSKB = c.sv.stop()
		// Subscriber goroutines may be blocked sending; drain until they exit.
		done := make(chan struct{})
		go func() { c.wg.Wait(); close(done) }()
		for {
			select {
			case <-c.events:
			case <-done:
				return
			}
		}
	})
}

// connect spawns the server, opens the subscribers and decodes each
// one's anchor frame: process spawn to first frame, which is setup_s.
func connect(bin string, seed int64, sources int) (*sseClient, error) {
	sv, err := startServer(bin, seed, sources)
	if err != nil {
		return nil, err
	}
	// Two subscribers never have more than a few frames in flight; the
	// buffer only keeps them from stalling behind the main loop's checks.
	c := &sseClient{sv: sv, events: make(chan sseEvent, 64)}
	for i := 0; i < sseSubscribers; i++ {
		body, err := subscribe(sv.base, i, c.events, &c.wg)
		if err != nil {
			c.teardown()
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	c.anchors = make([]sseEvent, sseSubscribers)
	timeout := time.After(60 * time.Second)
	for anchored := 0; anchored < sseSubscribers; {
		select {
		case ev := <-c.events:
			if ev.err != nil {
				c.teardown()
				return nil, fmt.Errorf("anchor frame: %w", ev.err)
			}
			if c.anchors[ev.sub].decoded.IsZero() {
				c.anchors[ev.sub] = ev
				anchored++
			}
		case <-timeout:
			c.teardown()
			return nil, fmt.Errorf("no anchor frame within 60s")
		}
	}
	return c, nil
}

// tableRows GETs /table and returns the version it served and how many
// rows that version has.
func tableRows(base string) (version uint64, rows int, err error) {
	resp, err := http.Get(base + "/table")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /table: %s", resp.Status)
	}
	version, err = strconv.ParseUint(resp.Header.Get("X-Wrangle-Version"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("GET /table: version header: %w", err)
	}
	var table []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		return 0, 0, fmt.Errorf("GET /table: %w", err)
	}
	return version, len(table), nil
}

// runServeSSE drives the real binary: spawn `wrangle -serve` under
// saturating churn, hold two /watch connections and decode every frame.
// An op is one frame at one subscriber; its latency is the interval
// since that subscriber's previous frame, which under saturating churn
// is the server's whole reaction-to-wire cycle.
func runServeSSE(e *env) (*result, error) {
	res := newResult("serve.sse.1k")
	bin, err := buildServer(e.binDir)
	if err != nil {
		return nil, err
	}
	sources := max(tiers["serve"].sources/e.shrink, 6)
	c, secs, err := repeatSetup(e.setups, func() (*sseClient, error) { return connect(bin, e.seed, sources) }, (*sseClient).teardown)
	if err != nil {
		return nil, fmt.Errorf("serve.sse.1k: set-up: %w", err)
	}
	defer c.teardown()
	res.setupS = secs
	res.probeOn = tiers["serve"].universe(e.seed, e.shrink)

	// Five frames per warm-up op: ten frames discarded per subscriber.
	warmupFrames := 5 * e.warmup
	type subState struct {
		last   sseEvent
		frames int
	}
	subs := make([]subState, sseSubscribers)
	for i := range subs {
		subs[i].last = c.anchors[i]
	}
	// Subscriber 0's view of the feed, for the checks.
	rowsAt := map[uint64]int{c.anchors[0].frame.Version: len(c.anchors[0].frame.Rows)}
	highest := c.anchors[0].frame
	var frameKB []float64
	tableVersion, tableCount := uint64(0), -1
	timedStart := time.Time{}
	limit := time.Duration(e.seconds * float64(time.Second))
	stall := time.NewTimer(60 * time.Second)
	defer stall.Stop()
	for timedStart.IsZero() || len(res.opMS) < e.minOps*sseSubscribers || time.Since(timedStart) < limit {
		var ev sseEvent
		select {
		case ev = <-c.events:
		case <-stall.C:
			res.attempted++
			res.fail("no frame for 60s")
			return res, nil
		}
		stall.Reset(60 * time.Second)
		res.attempted++
		st := &subs[ev.sub]
		switch {
		case ev.err != nil:
			res.fail("subscriber %d: undecodable frame: %v", ev.sub, ev.err)
			continue
		case ev.frame.Evicted:
			res.fail("subscriber %d evicted at version %d", ev.sub, ev.frame.Version)
			return res, nil
		case ev.frame.Version != st.last.frame.Version+1:
			res.fail("subscriber %d: version %d after %d", ev.sub, ev.frame.Version, st.last.frame.Version)
		}
		st.frames++
		if ev.sub == 0 {
			rowsAt[ev.frame.Version] = len(ev.frame.Rows)
			if ev.frame.Version == sseFingerprintAt {
				res.fingerprint = rowsDigest(ev.frame.Rows)
			}
			highest = ev.frame
			if st.frames == warmupFrames/2 && tableCount < 0 {
				// The read path of the same server, while it churns.
				res.attempted++
				if tableVersion, tableCount, err = tableRows(c.sv.base); err != nil {
					res.fail("%v", err)
				}
			}
		}
		if st.frames > warmupFrames {
			if timedStart.IsZero() {
				timedStart = time.Now()
				res.heapStartMB = heapLiveMB()
				res.procStart = sampleProc()
			}
			gap := ev.decoded.Sub(st.last.decoded)
			res.opMS = append(res.opMS, ms(gap))
			res.busy += gap
			res.deliverMS = append(res.deliverMS, ms(ev.decoded.Sub(ev.frame.PublishedAt)))
			frameKB = append(frameKB, float64(ev.bytes)/1024)
			op := int(ev.frame.Version)
			root := e.tr.add(0, op, "reaction", st.last.decoded, ev.decoded)
			e.tr.add(root, op, "watch.deliver", ev.frame.PublishedAt, ev.decoded)
		}
		st.last = ev
	}
	res.procEnd = sampleProc()
	res.heapEndMB = heapLiveMB()
	c.teardown()
	res.childCPU, res.childRSSKB = c.childCPU, c.childRSSKB
	res.extras["frame_kb_p50"] = median(frameKB)
	res.extras["sse_deliver_p50_ms"] = median(res.deliverMS)
	res.reportTail("sse_deliver", "ms", res.deliverMS)

	if res.fingerprint == "" {
		// A run too short to reach the fingerprint version (the smoke test).
		res.fingerprint = rowsDigest(highest.Rows)
	}
	if tableCount >= 0 {
		if got, seen := rowsAt[tableVersion]; !seen {
			res.mismatch("/table served version %d, which the feed never carried", tableVersion)
		} else if got != tableCount {
			res.mismatch("version %d: /table has %d rows, its frame %d", tableVersion, tableCount, got)
		}
	}
	return res, nil
}
