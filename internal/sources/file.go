package sources

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileProvider serves real data files from disk as wrangleable sources —
// the first non-synthetic backend. Each file becomes one Source whose ID
// is the file's base name (without extension) and whose Kind is inferred
// from the extension: .csv, .json, .kv/.txt (header: value blocks) and
// .html/.htm. Refresh re-reads the file, so on-disk edits flow through
// the same incremental path as synthetic source churn.
type FileProvider struct {
	items []*Source
	paths map[string]string // source ID -> file path
}

// kindForExt maps a file extension (lower-case, with dot) to a source
// kind; unknown extensions are skipped.
func kindForExt(ext string) (Kind, bool) {
	switch ext {
	case ".csv":
		return KindCSV, true
	case ".json":
		return KindJSON, true
	case ".kv", ".txt":
		return KindKV, true
	case ".html", ".htm":
		return KindHTML, true
	default:
		return "", false
	}
}

// NewFileProvider builds a provider over the given files. Every path must
// exist and carry a recognised extension.
func NewFileProvider(paths ...string) (*FileProvider, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("sources: no files given")
	}
	p := &FileProvider{paths: map[string]string{}}
	for _, path := range paths {
		kind, ok := kindForExt(strings.ToLower(filepath.Ext(path)))
		if !ok {
			return nil, fmt.Errorf("sources: unsupported file type %q", path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sources: %w", err)
		}
		id := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if _, dup := p.paths[id]; dup {
			return nil, fmt.Errorf("sources: duplicate source id %q (from %s)", id, path)
		}
		p.paths[id] = path
		p.items = append(p.items, &Source{ID: id, Kind: kind, Raw: string(raw)})
	}
	sort.Slice(p.items, func(i, j int) bool { return p.items[i].ID < p.items[j].ID })
	return p, nil
}

// NewDirProvider builds a FileProvider over every recognised data file
// directly inside dir (non-recursive).
func NewDirProvider(dir string) (*FileProvider, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sources: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := kindForExt(strings.ToLower(filepath.Ext(e.Name()))); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("sources: no data files (.csv/.json/.kv/.txt/.html) in %s", dir)
	}
	return NewFileProvider(paths...)
}

// List implements Provider.
func (p *FileProvider) List() []*Source { return p.items }

// Lookup implements Provider.
func (p *FileProvider) Lookup(id string) *Source {
	for _, s := range p.items {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// Refresh implements Provider: the file is re-read from disk. A read
// failure leaves the previous payload in place (best-effort, like a
// temporarily unreachable site).
func (p *FileProvider) Refresh(id string) *Source {
	s := p.Lookup(id)
	if s == nil {
		return nil
	}
	if raw, err := os.ReadFile(p.paths[id]); err == nil {
		s.Raw = string(raw)
	}
	return s
}

// Clock implements Provider: files have no world clock.
func (p *FileProvider) Clock() int { return 0 }

// ConcurrentAcquire implements ConcurrentProvider: a refresh only reads
// a file and writes its own source's payload, so distinct-id refreshes
// are independent disk reads worth overlapping.
func (p *FileProvider) ConcurrentAcquire() bool { return true }
