package sources

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Kind is the syntactic format a source publishes in (Variety).
type Kind string

// Source kinds.
const (
	KindCSV  Kind = "csv"
	KindJSON Kind = "json"
	KindHTML Kind = "html"
	// KindKV is a flat "header: value" record block format, the shape of
	// LDIF-style exports and sensor dumps — the long tail of Variety.
	KindKV Kind = "kv"
)

// Domain selects which part of the world a source describes.
type Domain string

// Source domains.
const (
	DomainProducts  Domain = "products"
	DomainLocations Domain = "locations"
)

// ErrorKind labels an injected veracity error on a field or record.
type ErrorKind string

// Injected error kinds (Veracity).
const (
	ErrTypo    ErrorKind = "typo"    // misspelled text value
	ErrNull    ErrorKind = "null"    // value dropped
	ErrWrong   ErrorKind = "wrong"   // numeric value perturbed
	ErrUnit    ErrorKind = "unit"    // price reported in cents (×100)
	ErrStale   ErrorKind = "stale"   // value from an earlier clock
	ErrFantasy ErrorKind = "fantasy" // whole record is invented
	ErrGeo     ErrorKind = "geo"     // coordinates offset (locations)
)

// ErrorRates configures per-field injection probabilities. All values are
// probabilities in [0,1]; Fantasy is a per-record probability.
type ErrorRates struct {
	Typo    float64
	Null    float64
	Wrong   float64
	Unit    float64
	Stale   float64
	Fantasy float64
	Geo     float64
}

// DefaultErrorRates returns the moderate-veracity setting used by most
// experiments.
func DefaultErrorRates() ErrorRates {
	return ErrorRates{Typo: 0.05, Null: 0.06, Wrong: 0.04, Unit: 0.02, Stale: 0.10, Fantasy: 0.02, Geo: 0.05}
}

// EmittedRecord is one row as a source publishes it, with ground-truth
// annotations for evaluation: TrueID is the world entity it derives from
// ("" for fantasy records) and Errors maps field names to the error kind
// injected there.
type EmittedRecord struct {
	TrueID string
	Values map[string]string    // canonical property -> emitted text
	Errors map[string]ErrorKind // canonical property -> injected error
}

// Clean reports whether no error was injected into the record.
func (r *EmittedRecord) Clean() bool { return len(r.Errors) == 0 && r.TrueID != "" }

// Source is one synthetic data source: a subset of the world published in
// one format under a source-specific schema, with injected errors. The
// ground-truth annotations (Records[i].TrueID/Errors) exist only for
// evaluation and are never consulted by wrangling components.
type Source struct {
	ID            string
	Kind          Kind
	Domain        Domain
	Props         []string          // canonical properties, in publication order
	Headers       map[string]string // canonical property -> source header name
	Records       []EmittedRecord
	Template      *Template // page template (HTML sources only)
	SnapshotClock int       // world clock when the snapshot was taken
	QualityFactor float64   // multiplier applied to base error rates (0 = clean)
	Categories    []string  // ontology class IDs this source covers
	// Raw, when non-empty, is the source's literal payload (real-world
	// sources read from disk or the network). Synthetic sources leave it
	// empty and render Records instead.
	Raw string
}

// Header returns the source-specific name for a canonical property.
func (s *Source) Header(prop string) string {
	if h, ok := s.Headers[prop]; ok {
		return h
	}
	return prop
}

// Payload renders the source's records in its publication format. Sources
// with a literal Raw payload return it verbatim; a source with neither
// records nor a template is raw by construction (file- or caller-backed),
// so an empty Raw means an empty payload rather than a synthetic render.
func (s *Source) Payload() string {
	if s.Raw != "" || (s.Records == nil && s.Template == nil) {
		return s.Raw
	}
	switch s.Kind {
	case KindCSV:
		return s.renderCSV()
	case KindJSON:
		return s.renderJSON()
	case KindHTML:
		// A file-backed HTML source whose file is empty has neither Raw
		// nor a synthetic template; an empty page beats a panic.
		if s.Template == nil {
			return ""
		}
		return s.Template.RenderPage(s)
	case KindKV:
		return s.renderKV()
	default:
		return ""
	}
}

func (s *Source) renderCSV() string {
	var b strings.Builder
	headers := make([]string, len(s.Props))
	for i, p := range s.Props {
		headers[i] = csvEscape(s.Header(p))
	}
	b.WriteString(strings.Join(headers, ","))
	b.WriteByte('\n')
	for _, r := range s.Records {
		cells := make([]string, len(s.Props))
		for i, p := range s.Props {
			cells[i] = csvEscape(r.Values[p])
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func (s *Source) renderJSON() string {
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range s.Records {
		b.WriteString("  {")
		first := true
		for _, p := range s.Props {
			v, ok := r.Values[p]
			if !ok || v == "" {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "%q: %s", s.Header(p), jsonValue(v))
		}
		b.WriteString("}")
		if i < len(s.Records)-1 {
			b.WriteString(",")
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.String()
}

func jsonValue(v string) string {
	if _, err := strconv.ParseFloat(v, 64); err == nil && !strings.HasPrefix(v, "0") || v == "0" {
		return v
	}
	return strconv.Quote(v)
}

// renderKV renders records as blank-line-separated "header: value"
// blocks.
func (s *Source) renderKV() string {
	var b strings.Builder
	for i, r := range s.Records {
		if i > 0 {
			b.WriteByte('\n')
		}
		for _, p := range s.Props {
			v := r.Values[p]
			if v == "" {
				continue
			}
			b.WriteString(s.Header(p))
			b.WriteString(": ")
			b.WriteString(strings.ReplaceAll(v, "\n", " "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Config controls universe generation — the 4 V's knobs.
type Config struct {
	Seed        int64
	Domain      Domain
	NumSources  int // Volume: number of sources
	MinRecords  int // Volume: records per source (uniform in [Min,Max])
	MaxRecords  int
	Coverage    float64 // fraction of the world each source may draw from
	Errors      ErrorRates
	StaleMax    int     // max staleness in clock steps
	CSVShare    float64 // Variety: format mix (shares normalised)
	JSONShare   float64
	HTMLShare   float64
	KVShare     float64
	CleanShare  float64 // fraction of sources with QualityFactor 0 (curated)
	DirtyFactor float64 // QualityFactor multiplier for the dirtiest sources
}

// DefaultConfig returns a balanced universe configuration for nSources
// product sources.
func DefaultConfig(seed int64, nSources int) Config {
	return Config{
		Seed: seed, Domain: DomainProducts, NumSources: nSources,
		MinRecords: 30, MaxRecords: 120, Coverage: 0.4,
		Errors: DefaultErrorRates(), StaleMax: 24,
		CSVShare: 0.4, JSONShare: 0.3, HTMLShare: 0.3,
		CleanShare: 0.1, DirtyFactor: 3,
	}
}

// Universe is a world plus the sources derived from it.
type Universe struct {
	World   *World
	Sources []*Source
	Config  Config
}

// Generate derives cfg.NumSources sources from the world. Generation is
// deterministic in cfg.Seed and independent of the world's own RNG state.
func Generate(w *World, cfg Config) *Universe {
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &Universe{World: w, Config: cfg}
	for i := 0; i < cfg.NumSources; i++ {
		u.Sources = append(u.Sources, generateSource(w, cfg, rng, i))
	}
	return u
}

// Source returns the source with the given ID, or nil.
func (u *Universe) Source(id string) *Source {
	for _, s := range u.Sources {
		if s.ID == id {
			return s
		}
	}
	return nil
}

func generateSource(w *World, cfg Config, rng *rand.Rand, idx int) *Source {
	s := &Source{
		ID:     fmt.Sprintf("src-%03d", idx),
		Domain: cfg.Domain,
	}
	// Format mix.
	total := cfg.CSVShare + cfg.JSONShare + cfg.HTMLShare + cfg.KVShare
	if total <= 0 {
		total, cfg.CSVShare = 1, 1
	}
	roll := rng.Float64() * total
	switch {
	case roll < cfg.CSVShare:
		s.Kind = KindCSV
	case roll < cfg.CSVShare+cfg.JSONShare:
		s.Kind = KindJSON
	case roll < cfg.CSVShare+cfg.JSONShare+cfg.HTMLShare:
		s.Kind = KindHTML
	default:
		s.Kind = KindKV
	}
	// Quality tier.
	switch {
	case rng.Float64() < cfg.CleanShare:
		s.QualityFactor = 0
	default:
		s.QualityFactor = 0.3 + rng.Float64()*(cfg.DirtyFactor-0.3)
	}
	// Staleness: how old this source's snapshot is.
	if cfg.StaleMax > 0 {
		s.SnapshotClock = w.Clock - rng.Intn(cfg.StaleMax+1)
		if s.SnapshotClock < 0 {
			s.SnapshotClock = 0
		}
	} else {
		s.SnapshotClock = w.Clock
	}
	switch cfg.Domain {
	case DomainLocations:
		populateLocationSource(w, cfg, rng, s)
	default:
		populateProductSource(w, cfg, rng, s)
	}
	if s.Kind == KindHTML {
		s.Template = NewTemplate(rng)
	}
	return s
}

// headerSynonyms lists the source-side names generation picks from per
// canonical property. Kept in sync with ontology.ProductTaxonomy /
// LocationTaxonomy synonym lists so matching has signal to find, plus a few
// adversarial names that only instance-based matching can align.
var headerSynonyms = map[string][]string{
	"sku":          {"sku", "id", "product_id", "item_no", "ref", "article"},
	"name":         {"name", "title", "product", "product_name", "item", "label"},
	"brand":        {"brand", "manufacturer", "maker", "vendor", "make"},
	"category":     {"category", "cat", "department", "type", "section"},
	"price":        {"price", "cost", "amount", "price_usd", "unit_price", "p"},
	"currency":     {"currency", "curr", "ccy"},
	"rating":       {"rating", "stars", "score", "avg_rating"},
	"updated":      {"updated", "last_updated", "timestamp", "as_of", "modified"},
	"url":          {"url", "link", "href", "page"},
	"street":       {"street", "address", "addr", "street_address", "road"},
	"city":         {"city", "town", "locality"},
	"postcode":     {"postcode", "zip", "zipcode", "postal_code"},
	"lat":          {"lat", "latitude", "geo_lat", "y"},
	"lon":          {"lon", "longitude", "lng", "x"},
	"phone":        {"phone", "tel", "telephone", "contact"},
	"checkins":     {"checkins", "visits", "check_ins", "popularity"},
	"biz_category": {"category", "type", "kind", "venue_type"},
	"biz_name":     {"name", "business", "business_name", "venue", "title"},
}

func pickHeaders(rng *rand.Rand, props []string, alias map[string]string) map[string]string {
	out := make(map[string]string, len(props))
	for _, p := range props {
		key := p
		if alias != nil {
			if a, ok := alias[p]; ok {
				key = a
			}
		}
		syns := headerSynonyms[key]
		if len(syns) == 0 {
			out[p] = p
			continue
		}
		out[p] = syns[rng.Intn(len(syns))]
	}
	return out
}

func populateProductSource(w *World, cfg Config, rng *rand.Rand, s *Source) {
	// Choose a property subset: sku/name/price always, others optional.
	s.Props = []string{"sku", "name", "price"}
	for _, opt := range []string{"brand", "category", "rating", "updated", "currency", "url"} {
		if rng.Float64() < 0.55 {
			s.Props = append(s.Props, opt)
		}
	}
	rng.Shuffle(len(s.Props), func(i, j int) { s.Props[i], s.Props[j] = s.Props[j], s.Props[i] })
	s.Headers = pickHeaders(rng, s.Props, nil)

	// Pick a record subset biased to a few categories (sources specialise).
	n := cfg.MinRecords
	if cfg.MaxRecords > cfg.MinRecords {
		n += rng.Intn(cfg.MaxRecords - cfg.MinRecords + 1)
	}
	pool := pickPool(w, cfg, rng, s)
	if n > len(pool) {
		n = len(pool)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	rates := scaleRates(cfg.Errors, s.QualityFactor)
	for _, pi := range pool[:n] {
		p := w.Products[pi]
		rec := emitProduct(w, rng, s, &p, rates, cfg.StaleMax)
		s.Records = append(s.Records, rec)
	}
	// Fantasy records.
	for i := 0; i < n; i++ {
		if rng.Float64() < rates.Fantasy {
			s.Records = append(s.Records, fantasyProduct(rng, s))
		}
	}
	rng.Shuffle(len(s.Records), func(i, j int) { s.Records[i], s.Records[j] = s.Records[j], s.Records[i] })
}

// pickPool selects the world indices this source may draw from: a
// category-biased subset of Coverage fraction of the catalogue, and
// records the covered categories on the source.
func pickPool(w *World, cfg Config, rng *rand.Rand, s *Source) []int {
	byCat := map[string][]int{}
	for i, p := range w.Products {
		byCat[topCategory(p.Category)] = append(byCat[topCategory(p.Category)], i)
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	rng.Shuffle(len(cats), func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })
	keep := 1 + rng.Intn(len(cats))
	var pool []int
	for _, c := range cats[:keep] {
		pool = append(pool, byCat[c]...)
		s.Categories = append(s.Categories, c)
	}
	sort.Strings(s.Categories)
	want := int(cfg.Coverage * float64(len(w.Products)))
	if want > 0 && len(pool) > want {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:want]
	}
	return pool
}

func topCategory(class string) string {
	if i := strings.IndexByte(class, '/'); i > 0 {
		return class[:i]
	}
	return class
}

func scaleRates(r ErrorRates, factor float64) ErrorRates {
	return ErrorRates{
		Typo: clamp01(r.Typo * factor), Null: clamp01(r.Null * factor),
		Wrong: clamp01(r.Wrong * factor), Unit: clamp01(r.Unit * factor),
		Stale: clamp01(r.Stale * factor), Fantasy: clamp01(r.Fantasy * factor),
		Geo: clamp01(r.Geo * factor),
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func emitProduct(w *World, rng *rand.Rand, s *Source, p *Product, rates ErrorRates, staleMax int) EmittedRecord {
	rec := EmittedRecord{TrueID: p.SKU, Values: map[string]string{}, Errors: map[string]ErrorKind{}}
	price, _ := w.PriceAt(p.SKU, s.SnapshotClock)
	vals := map[string]string{
		"sku":      p.SKU,
		"name":     p.Name,
		"brand":    p.Brand,
		"category": categoryLabel(p.Category),
		"price":    formatPrice(price),
		"currency": "USD",
		"rating":   strconv.FormatFloat(p.Rating, 'f', 1, 64),
		"updated":  AsOf(s.SnapshotClock).Format("2006-01-02T15:04:05Z"),
		"url":      fmt.Sprintf("https://shop.example/%s", strings.ToLower(p.SKU)),
	}
	// The snapshot itself may already be stale relative to the world clock;
	// additionally, individual prices can lag even further (per-field stale).
	if price != p.Price {
		rec.Errors["price"] = ErrStale
	}
	for _, prop := range s.Props {
		v := vals[prop]
		switch {
		case rng.Float64() < rates.Null:
			v = ""
			rec.Errors[prop] = ErrNull
		case prop == "name" && rng.Float64() < rates.Typo:
			v = injectTypo(rng, v)
			rec.Errors[prop] = ErrTypo
		case prop == "brand" && rng.Float64() < rates.Typo:
			v = injectTypo(rng, v)
			rec.Errors[prop] = ErrTypo
		case prop == "price" && rng.Float64() < rates.Unit:
			v = formatPrice(price * 100) // cents instead of dollars
			rec.Errors[prop] = ErrUnit
		case prop == "price" && rng.Float64() < rates.Wrong:
			v = formatPrice(price * (0.5 + rng.Float64()))
			rec.Errors[prop] = ErrWrong
		case prop == "price" && staleMax > 0 && rng.Float64() < rates.Stale:
			older := s.SnapshotClock - rng.Intn(staleMax+1)
			if older < 0 {
				older = 0
			}
			if op, ok := w.PriceAt(p.SKU, older); ok && op != price {
				v = formatPrice(op)
				rec.Errors[prop] = ErrStale
			}
		case prop == "rating" && rng.Float64() < rates.Wrong:
			v = strconv.FormatFloat(round2(1+rng.Float64()*4), 'f', 1, 64)
			rec.Errors[prop] = ErrWrong
		}
		rec.Values[prop] = v
	}
	return rec
}

func fantasyProduct(rng *rand.Rand, s *Source) EmittedRecord {
	rec := EmittedRecord{TrueID: "", Values: map[string]string{}, Errors: map[string]ErrorKind{"": ErrFantasy}}
	for _, prop := range s.Props {
		switch prop {
		case "sku":
			rec.Values[prop] = fmt.Sprintf("SKU-9%04d", rng.Intn(10000))
		case "name":
			rec.Values[prop] = fmt.Sprintf("%s Mystery Item %d", brands[rng.Intn(len(brands))], rng.Intn(1000))
		case "price":
			rec.Values[prop] = formatPrice(1 + rng.Float64()*500)
		case "brand":
			rec.Values[prop] = brands[rng.Intn(len(brands))]
		default:
			rec.Values[prop] = ""
		}
	}
	return rec
}

// categoryLabel renders an ontology class ID the way a messy source would:
// just the last path segment with spaces.
func categoryLabel(class string) string {
	if i := strings.LastIndexByte(class, '/'); i >= 0 {
		class = class[i+1:]
	}
	return class
}

func formatPrice(p float64) string { return strconv.FormatFloat(round2(p), 'f', 2, 64) }

// injectTypo applies one random edit: swap, drop, double or replace a rune.
func injectTypo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) < 3 {
		return s + "x"
	}
	i := 1 + rng.Intn(len(r)-2)
	switch rng.Intn(4) {
	case 0: // swap
		r[i], r[i+1] = r[i+1], r[i]
	case 1: // drop
		r = append(r[:i], r[i+1:]...)
	case 2: // double
		r = append(r[:i+1], r[i:]...)
	default: // replace
		r[i] = rune('a' + rng.Intn(26))
	}
	return string(r)
}

func populateLocationSource(w *World, cfg Config, rng *rand.Rand, s *Source) {
	s.Props = []string{"name", "street", "city"}
	for _, opt := range []string{"category", "postcode", "lat", "lon", "phone", "url", "checkins"} {
		if rng.Float64() < 0.6 {
			s.Props = append(s.Props, opt)
		}
	}
	rng.Shuffle(len(s.Props), func(i, j int) { s.Props[i], s.Props[j] = s.Props[j], s.Props[i] })
	s.Headers = pickHeaders(rng, s.Props, map[string]string{"name": "biz_name", "category": "biz_category"})

	n := cfg.MinRecords
	if cfg.MaxRecords > cfg.MinRecords {
		n += rng.Intn(cfg.MaxRecords - cfg.MinRecords + 1)
	}
	idx := rng.Perm(len(w.Businesses))
	want := int(cfg.Coverage * float64(len(w.Businesses)))
	if want > 0 && n > want {
		n = want
	}
	if n > len(idx) {
		n = len(idx)
	}
	rates := scaleRates(cfg.Errors, s.QualityFactor)
	for _, bi := range idx[:n] {
		b := w.Businesses[bi]
		s.Records = append(s.Records, emitBusiness(rng, s, &b, rates))
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < rates.Fantasy {
			s.Records = append(s.Records, fantasyBusiness(rng, s))
		}
	}
	rng.Shuffle(len(s.Records), func(i, j int) { s.Records[i], s.Records[j] = s.Records[j], s.Records[i] })
}

func emitBusiness(rng *rand.Rand, s *Source, b *Business, rates ErrorRates) EmittedRecord {
	rec := EmittedRecord{TrueID: b.ID, Values: map[string]string{}, Errors: map[string]ErrorKind{}}
	vals := map[string]string{
		"name":     b.Name,
		"category": categoryLabel(b.Category),
		"street":   b.Street,
		"city":     b.City,
		"postcode": b.Postcode,
		"lat":      strconv.FormatFloat(b.Lat, 'f', 5, 64),
		"lon":      strconv.FormatFloat(b.Lon, 'f', 5, 64),
		"phone":    b.Phone,
		"url":      b.URL,
		"checkins": strconv.Itoa(rng.Intn(5000)),
	}
	for _, prop := range s.Props {
		v := vals[prop]
		switch {
		case rng.Float64() < rates.Null:
			v = ""
			rec.Errors[prop] = ErrNull
		case (prop == "name" || prop == "street") && rng.Float64() < rates.Typo:
			v = injectTypo(rng, v)
			rec.Errors[prop] = ErrTypo
		case (prop == "lat" || prop == "lon") && rng.Float64() < rates.Geo:
			f, _ := strconv.ParseFloat(v, 64)
			v = strconv.FormatFloat(f+(rng.Float64()-0.5)*2, 'f', 5, 64)
			rec.Errors[prop] = ErrGeo
		}
		rec.Values[prop] = v
	}
	return rec
}

func fantasyBusiness(rng *rand.Rand, s *Source) EmittedRecord {
	rec := EmittedRecord{TrueID: "", Values: map[string]string{}, Errors: map[string]ErrorKind{"": ErrFantasy}}
	for _, prop := range s.Props {
		switch prop {
		case "name":
			rec.Values[prop] = fmt.Sprintf("Imaginary %s Palace %d", bizNameParts[rng.Intn(len(bizNameParts))], rng.Intn(100))
		case "city":
			rec.Values[prop] = cities[rng.Intn(len(cities))]
		case "street":
			rec.Values[prop] = fmt.Sprintf("%d Nowhere Lane", rng.Intn(999))
		default:
			rec.Values[prop] = ""
		}
	}
	return rec
}

// Refresh re-snapshots a source against the current world clock, keeping
// its schema and template but regenerating record values (Velocity: "sites
// ... and contents that are continually changing"). A fresh RNG derived
// from the universe seed and the source ID keeps refreshes deterministic.
func (u *Universe) Refresh(sourceID string) *Source {
	s := u.Source(sourceID)
	if s == nil {
		return nil
	}
	h := int64(0)
	for _, c := range sourceID {
		h = h*31 + int64(c)
	}
	rng := rand.New(rand.NewSource(u.Config.Seed ^ h ^ int64(u.World.Clock)<<16))
	rates := scaleRates(u.Config.Errors, s.QualityFactor)
	s.SnapshotClock = u.World.Clock
	for i := range s.Records {
		rec := &s.Records[i]
		if rec.TrueID == "" {
			continue
		}
		switch s.Domain {
		case DomainProducts:
			if p := u.World.Product(rec.TrueID); p != nil {
				*rec = emitProduct(u.World, rng, s, p, rates, u.Config.StaleMax)
			}
		case DomainLocations:
			if b := u.World.Business(rec.TrueID); b != nil {
				*rec = emitBusiness(rng, s, b, rates)
			}
		}
	}
	return s
}
