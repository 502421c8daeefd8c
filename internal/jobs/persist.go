package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/faults"
)

// Fault-injection points of the persistence path (see Config.Faults and
// package faults). Each fires immediately before the real operation it
// simulates failing.
const (
	// FaultSpecWrite fails the submission document's tmp-file write.
	FaultSpecWrite = "jobs/spec-write"
	// FaultSpecRename fails the atomic rename that publishes the
	// submission document.
	FaultSpecRename = "jobs/spec-rename"
	// FaultCkptAppend fails one checkpoint line's write. An Outcome with
	// Torn > 0 instead writes that leading fraction of the line and no
	// newline — the on-disk shape an interrupted write leaves behind.
	FaultCkptAppend = "jobs/ckpt-append"
	// FaultCkptSync fails one checkpoint line's fsync (the line itself
	// was written).
	FaultCkptSync = "jobs/ckpt-sync"
)

// On-disk layout under Config.Dir, one pair of files per unfinished job:
//
//	<id>.job   JSON {"kind": ..., "spec": <submitted document>}
//	<id>.ckpt  JSONL, one {"k": <scenario index>, "v": <checkpoint>}
//	           per completed scenario, appended and fsynced
//	           as the sweep progresses
//
// Both files are removed when the job reaches a terminal state in a
// live process; whatever remains on disk at startup is, by definition,
// the set of jobs a crash or shutdown interrupted — LoadPending returns
// them for re-submission, checkpoints included.

const (
	specExt = ".job"
	ckptExt = ".ckpt"
)

// specFile is the persisted submission document.
type specFile struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
}

// ckptLine is one persisted checkpoint entry.
type ckptLine struct {
	K int             `json:"k"`
	V json.RawMessage `json:"v"`
}

// persistSpec writes the job's submission document atomically (tmp +
// rename). A no-op without a persistence directory.
func (m *Manager) persistSpec(j *Job) error {
	if m.cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(m.cfg.Dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(specFile{Kind: j.kind, Spec: json.RawMessage(j.spec)})
	if err != nil {
		return err
	}
	path := filepath.Join(m.cfg.Dir, j.id+specExt)
	tmp := path + ".tmp"
	if err := m.cfg.Faults.Hit(FaultSpecWrite); err != nil {
		return err
	}
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := m.cfg.Faults.Hit(FaultSpecRename); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// removeFiles drops a finished job's persisted state. A no-op without a
// persistence directory.
func (m *Manager) removeFiles(id string) {
	if m.cfg.Dir == "" {
		return
	}
	os.Remove(filepath.Join(m.cfg.Dir, id+specExt))
	os.Remove(filepath.Join(m.cfg.Dir, id+ckptExt))
}

// checkpointFile appends fsynced JSONL checkpoint lines. Opening lazily
// at job start (not submission) keeps the file's existence aligned with
// "work actually began"; appends accumulate across process restarts.
type checkpointFile struct {
	mu sync.Mutex
	f  *os.File
	// faults arms the FaultCkptAppend/FaultCkptSync failpoints (nil
	// disarms); onFail — never nil in a Manager-owned file — counts each
	// line that failed to record durably.
	faults *faults.Registry
	onFail func()
}

// openCheckpoint opens (or creates) the job's checkpoint file for
// appending. Returns nil on error: checkpointing degrades to "recompute
// after restart", it never blocks the job. onFail is invoked once per
// checkpoint line that could not be recorded durably.
func openCheckpoint(dir, id string, reg *faults.Registry, onFail func()) *checkpointFile {
	f, err := os.OpenFile(filepath.Join(dir, id+ckptExt),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if onFail != nil {
			onFail()
		}
		return nil
	}
	return &checkpointFile{f: f, faults: reg, onFail: onFail}
}

// fail counts one checkpoint line lost to a write/marshal/fsync failure.
func (c *checkpointFile) fail() {
	if c.onFail != nil {
		c.onFail()
	}
}

// append durably writes one checkpoint line. Each line is fsynced: a
// checkpoint the caller believes recorded must survive a crash, and one
// fsync per completed sweep scenario is noise next to the scenario's
// evaluation cost. Failures are swallowed (recovery just recomputes the
// scenario) but counted via fail, so they are observable.
func (c *checkpointFile) append(key int, v any) {
	if c == nil {
		return
	}
	vb, err := json.Marshal(v)
	if err != nil {
		c.fail()
		return
	}
	b, err := json.Marshal(ckptLine{K: key, V: vb})
	if err != nil {
		c.fail()
		return
	}
	line := append(b, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return
	}
	if o := c.faults.Fire(FaultCkptAppend); o != nil {
		// Injected append failure. Torn > 0 simulates the crash shape a
		// real interrupted write leaves: a leading fraction of the line,
		// no trailing newline.
		if o.Torn > 0 {
			n := int(float64(len(line)) * o.Torn)
			if n < 1 {
				n = 1
			}
			if n >= len(line) {
				n = len(line) - 1
			}
			c.f.Write(line[:n])
			c.f.Sync()
		}
		c.fail()
		return
	}
	if _, err := c.f.Write(line); err != nil {
		c.fail()
		return
	}
	if err := c.faults.Hit(FaultCkptSync); err != nil {
		c.fail()
		return
	}
	if err := c.f.Sync(); err != nil {
		c.fail()
	}
}

func (c *checkpointFile) close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// Pending is one interrupted job recovered from disk.
type Pending struct {
	// ID is the job id (the persisted file's base name — the request
	// fingerprint).
	ID string
	// Kind and Spec reproduce the original submission.
	Kind string
	Spec []byte
	// Resume holds the persisted checkpoints, keyed by scenario
	// index; pass it through Request.Resume.
	Resume map[int]json.RawMessage
}

// LoadPending scans a persistence directory for interrupted jobs. A
// missing directory is an empty result, not an error. Unreadable or
// corrupt spec files are skipped (reported in errs) rather than blocking
// startup; a truncated trailing checkpoint line — the crash case — is
// ignored, surrendering at most one scenario.
func LoadPending(dir string) (pending []Pending, errs []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{err}
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, specExt) {
			continue
		}
		id := strings.TrimSuffix(name, specExt)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("jobs: read %s: %w", name, err))
			continue
		}
		var sf specFile
		if err := json.Unmarshal(b, &sf); err != nil || sf.Kind == "" || len(sf.Spec) == 0 {
			errs = append(errs, fmt.Errorf("jobs: corrupt spec %s: %v", name, err))
			continue
		}
		p := Pending{ID: id, Kind: sf.Kind, Spec: sf.Spec}
		var ckErrs []error
		p.Resume, ckErrs = loadCheckpoints(filepath.Join(dir, id+ckptExt))
		errs = append(errs, ckErrs...)
		pending = append(pending, p)
	}
	return pending, errs
}

// loadCheckpoints reads a JSONL checkpoint file. An undecodable FINAL
// line is the expected crash shape — a torn interrupted write — and is
// silently dropped, surrendering at most one scenario. An undecodable
// line in the MIDDLE of the file is genuine corruption: it is reported
// (so the operator hears about it) and skipped, and since its key never
// enters the resume map, the resumed job simply re-runs that scenario —
// corruption costs recomputation, never wrong results. Later duplicates
// of a key win — they are rewrites of the same completed scenario.
func loadCheckpoints(path string) (map[int]json.RawMessage, []error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	var out map[int]json.RawMessage
	var errs []error
	for i, line := range lines {
		var cl ckptLine
		if err := json.Unmarshal([]byte(line), &cl); err != nil {
			if i == len(lines)-1 {
				break // torn final write: the crash this format expects
			}
			errs = append(errs, fmt.Errorf("jobs: corrupt checkpoint line %d in %s (scenario will be re-run): %v",
				i+1, filepath.Base(path), err))
			continue
		}
		if out == nil {
			out = make(map[int]json.RawMessage)
		}
		out[cl.K] = cl.V
	}
	return out, errs
}
