package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mxq"
	"mxq/internal/wire"
)

// database is what the server uses of an *mxq.Database: the listing,
// the one lookup and the load.
type database interface {
	Documents() []string
	OpenDocument(name string) (*mxq.Document, error)
	LoadXMLString(name, xml string) (*mxq.Document, error)
}

// Config configures a Server.
type Config struct {
	// DB is the database the server fronts, an *mxq.Database. Every
	// request looks its document up with OpenDocument, whose per-name
	// fence decides which instance of a name is live; the server holds
	// no reference of its own. The server never closes the database;
	// the daemon does, after Shutdown returns (so the WAL and
	// auto-checkpointers flush once no request can touch them).
	DB database
	// MaxConcurrent bounds the weight units executing at once (queries
	// weigh 1, updates and loads 2). Default 64.
	MaxConcurrent int64
	// MaxWaiters bounds how many admissions may queue before overflow is
	// answered with ErrOverloaded frames. Default 4 * MaxConcurrent.
	MaxWaiters int
	// MaxFrame caps a frame's size (0 = wire.MaxFrame): a larger request
	// is cut off, a larger result refused with CodeQuery.
	MaxFrame uint32
	// ReadOnly rejects every write opcode (Load, Update) with
	// CodeReadOnly. The daemon's follower mode (-follow) sets it: a
	// followed document has exactly one writer, the primary's stream,
	// and a local write would fork its LSN line.
	ReadOnly bool
	// Logf, when non-nil, receives server lifecycle messages, and the
	// value and stack of a panic that ended a session.
	Logf func(format string, args ...any)
}

// Server is the mxqd daemon core: an accept loop spawning one session
// per connection over a shared admission semaphore.
type Server struct {
	cfg Config
	adm *admission
	// writers maps a document name to the *sync.Mutex that serializes
	// the server's write transactions on it: transactions are only
	// snapshot-isolated (racing ones could write-skew) and page locking
	// is optimistic (a racing writer gets tx.ErrConflict back), so
	// concurrent Update frames queue here. Readers never take it.
	writers sync.Map

	mu       sync.Mutex
	listener net.Listener
	sessions map[*session]struct{}
	wg       sync.WaitGroup
	drain    atomic.Bool
}

// New builds a server around cfg.DB.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.MaxWaiters <= 0 {
		cfg.MaxWaiters = int(4 * cfg.MaxConcurrent)
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = wire.MaxFrame
	}
	return &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.MaxConcurrent, cfg.MaxWaiters),
		sessions: make(map[*session]struct{}),
	}
}

// Serve accepts connections on l until Shutdown (or a fatal listener
// error). It blocks; run it in a goroutine and call Shutdown to stop.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.drain.Load() {
				return nil
			}
			return err
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.drain.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sess.serve()
	}
}

func (s *Server) draining() bool { return s.drain.Load() }

// sessionDone unregisters a finished session.
func (s *Server) sessionDone(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess]; ok {
		delete(s.sessions, sess)
		s.wg.Done()
	}
	s.mu.Unlock()
}

// Shutdown drains the server: stop accepting, fail queued admissions,
// let requests already executing finish and their responses flush, and
// force-close whatever is still running when the timeout expires.
// Sessions release their pinned snapshots on the way out; after
// Shutdown returns, no request touches the database, so
// the daemon can Close it (flushing WAL segments and draining
// auto-checkpointers) safely.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.drain.Store(true)
	s.mu.Lock()
	l := s.listener
	conns := make([]net.Conn, 0, len(s.sessions))
	for sess := range s.sessions {
		conns = append(conns, sess.conn)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	// Queued admissions fail now (their sessions answer ShuttingDown);
	// executing holders release normally.
	s.adm.close()
	// Unblock sessions parked in ReadFrame; one mid-request finishes and
	// responds first, then its next read fails and the session exits.
	now := time.Now()
	for _, c := range conns {
		c.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var timedOut bool
	select {
	case <-done:
	case <-time.After(timeout):
		timedOut = true
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("server: drained (forced=%v)", timedOut)
	}
	if timedOut {
		return errors.New("server: drain deadline exceeded; connections force-closed")
	}
	return nil
}
