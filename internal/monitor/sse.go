package monitor

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
)

// sseMsg is one Server-Sent Event: an optional event name plus one line of
// data (the JSONL records the streaming layer emits are single lines by
// construction).
type sseMsg struct {
	event string
	data  []byte
}

// Broker fans one stream of lines out to any number of SSE clients. It is an
// io.Writer, so a machine.StreamRecorder or dist.AggregateStream pointed at
// it turns its JSONL records into `data:` events with no adapter; partial
// writes are buffered until a newline completes the record. Slow clients
// never block producers: each subscriber has a bounded queue and messages
// that do not fit are dropped (and counted).
//
// Write may be called from multiple goroutines (the wabench section stream
// and a dist aggregate stream can share one broker); the line buffer and
// subscriber set are mutex-guarded.
type Broker struct {
	mu      sync.Mutex
	clients map[chan sseMsg]struct{}
	buf     bytes.Buffer // partial line accumulator
	done    chan struct{}
	closed  bool

	sent    atomic.Int64
	dropped atomic.Int64

	// depth, when set, receives each client's queue depth at enqueue time —
	// the wa_sse_queue_depth distribution the server exports. Histograms are
	// internally locked, so observing under b.mu is safe.
	depth *Histogram
}

// clientQueue bounds each subscriber's in-flight messages.
const clientQueue = 256

// NewBroker returns an empty broker; it is ready to Write to even with no
// clients (messages then go nowhere, cheaply).
func NewBroker() *Broker {
	return &Broker{
		clients: make(map[chan sseMsg]struct{}),
		done:    make(chan struct{}),
	}
}

// Shutdown ends every in-flight ServeHTTP loop and makes future ones return
// immediately, so no handler goroutine outlives the broker's owner (the
// Server calls this from Close). Idempotent; Write and Broadcast stay safe
// after shutdown and simply reach no clients.
func (b *Broker) Shutdown() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.done)
	}
	b.mu.Unlock()
}

// Write splits p into lines and broadcasts each complete line as one
// unnamed SSE message. It never fails: the broker is a sink of last resort,
// and a stream pointed here must not die because a dashboard disconnected.
func (b *Broker) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf.Write(p)
	var lines [][]byte
	for {
		raw := b.buf.Bytes()
		i := bytes.IndexByte(raw, '\n')
		if i < 0 {
			break
		}
		line := append([]byte(nil), raw[:i]...)
		b.buf.Next(i + 1)
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	b.mu.Unlock()
	for _, line := range lines {
		b.Broadcast("", line)
	}
	return len(p), nil
}

// Broadcast sends one message (with an optional event name) to every
// subscriber, dropping it for clients whose queues are full.
func (b *Broker) Broadcast(event string, data []byte) {
	msg := sseMsg{event: event, data: append([]byte(nil), data...)}
	b.mu.Lock()
	for ch := range b.clients {
		if b.depth != nil {
			b.depth.Observe(float64(len(ch)))
		}
		select {
		case ch <- msg:
			b.sent.Add(1)
		default:
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// ObserveDepth points the broker's per-enqueue queue-depth observations at a
// histogram (the Server wires its wa_sse_queue_depth here). Call before
// traffic starts.
func (b *Broker) ObserveDepth(h *Histogram) {
	b.mu.Lock()
	b.depth = h
	b.mu.Unlock()
}

// Clients returns the current subscriber count.
func (b *Broker) Clients() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.clients)
}

// Sent returns messages delivered to subscriber queues; Dropped counts the
// ones discarded because a queue was full.
func (b *Broker) Sent() int64    { return b.sent.Load() }
func (b *Broker) Dropped() int64 { return b.dropped.Load() }

func (b *Broker) subscribe() chan sseMsg {
	ch := make(chan sseMsg, clientQueue)
	b.mu.Lock()
	b.clients[ch] = struct{}{}
	b.mu.Unlock()
	return ch
}

func (b *Broker) unsubscribe(ch chan sseMsg) {
	b.mu.Lock()
	delete(b.clients, ch)
	b.mu.Unlock()
}

// ServeHTTP streams the broker to one client as text/event-stream until the
// client disconnects (request context cancellation) or the broker shuts down.
func (b *Broker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Subscribe before the stream opens, so a client that has read the
	// open line is counted and misses no later record.
	ch := b.subscribe()
	defer b.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line commits the headers so clients see the stream
	// open immediately, before the first record arrives.
	if _, err := w.Write([]byte(": stream open\n\n")); err != nil {
		return
	}
	fl.Flush()

	for {
		select {
		case <-b.done:
			return
		case msg := <-ch:
			if msg.event != "" {
				if _, err := w.Write([]byte("event: " + msg.event + "\n")); err != nil {
					return
				}
			}
			if _, err := w.Write([]byte("data: ")); err != nil {
				return
			}
			if _, err := w.Write(msg.data); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
