// Package sources generates the synthetic source universe that stands in
// for the paper's deep-web corpus (Example 1: "thousands of sites" of
// e-commerce data). Real crawls are unavailable offline, so the package
// builds a ground-truth world (products with true prices, businesses with
// true addresses) and derives heterogeneous, imperfect sources from it with
// the 4 V's as explicit knobs:
//
//   - Volume:   number of sources and records per source,
//   - Velocity: churn applied by Evolve (prices move, templates drift),
//   - Variety:  CSV, JSON and HTML sources with divergent schemas and
//     template families,
//   - Veracity: injected typos, nulls, stale values, unit drift and
//     fantasy records, at configurable rates.
//
// Because the world is known, every experiment can score wrangled output
// against ground truth — the property the paper's own evaluation would have
// needed and that the substitution preserves (see DESIGN.md §4).
package sources

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Product is one ground-truth catalogue entry. Category is an ontology
// class ID from ontology.ProductTaxonomy.
type Product struct {
	SKU      string
	Name     string
	Brand    string
	Category string
	Price    float64 // current true price
	Rating   float64 // true average rating in [1,5]
}

// Business is one ground-truth business location (Example 3).
type Business struct {
	ID       string
	Name     string
	Category string // ontology class ID from ontology.LocationTaxonomy
	Street   string
	City     string
	Postcode string
	Lat, Lon float64
	URL      string
	Phone    string
}

// World is the ground truth all sources derive from. PriceAt tracks price
// history so freshness experiments can distinguish stale from wrong.
type World struct {
	Products   []Product
	Businesses []Business
	Clock      int // logical time, advanced by Evolve

	rng       *rand.Rand
	priceHist map[string][]pricePoint // SKU -> history (ascending clock)
	skuIndex  map[string]int
	bizIndex  map[string]int
}

type pricePoint struct {
	clock int
	price float64
}

var (
	brands = []string{"Anker", "Belkin", "Logi", "TrustLine", "Voltix", "Nordia",
		"CableCo", "PixelWare", "Zentro", "Kivo", "Ferrum", "Bluecrest"}
	adjectives = []string{"Premium", "Essential", "Pro", "Ultra", "Classic",
		"Compact", "Heavy-Duty", "Slim", "Eco", "Max"}
	variants = []string{"1m", "2m", "3m", "Black", "White", "Red", "Blue",
		"v2", "2-Pack", "XL"}
	productKinds = []struct {
		class string
		noun  string
	}{
		{"electronics/cables/usb", "USB Cable"},
		{"electronics/cables/hdmi", "HDMI Cable"},
		{"electronics/cables/ethernet", "Ethernet Cable"},
		{"electronics/audio/headphones", "Headphones"},
		{"electronics/audio/speakers", "Bluetooth Speaker"},
		{"electronics/peripherals/mouse", "Wireless Mouse"},
		{"electronics/peripherals/keyboard", "Mechanical Keyboard"},
		{"electronics/peripherals/webcam", "Webcam"},
		{"electronics/peripherals/monitor", "Monitor"},
		{"electronics/storage/ssd", "SSD"},
		{"electronics/storage/hdd", "External Hard Drive"},
		{"electronics/storage/usbstick", "USB Flash Drive"},
		{"electronics/phones/smartphone", "Smartphone"},
		{"electronics/phones/charger", "USB Charger"},
		{"electronics/phones/case", "Phone Case"},
		{"home/kitchen/kettle", "Electric Kettle"},
		{"home/kitchen/toaster", "Toaster"},
		{"home/kitchen/blender", "Blender"},
		{"home/lighting/desklamp", "Desk Lamp"},
		{"home/lighting/bulb", "Smart Bulb"},
		{"sports/fitness/yogamat", "Yoga Mat"},
		{"sports/fitness/dumbbell", "Dumbbell Set"},
		{"sports/cycling/helmet", "Bike Helmet"},
		{"sports/cycling/lock", "Bike Lock"},
		{"office/paper", "Printer Paper"},
		{"office/pens", "Gel Pens"},
		{"office/notebooks", "Notebook"},
	}

	streetNames = []string{"High Street", "Station Road", "Mill Lane", "Church Street",
		"Victoria Road", "Green Lane", "Park Avenue", "Queensway", "Market Square", "Bridge Road"}
	cities = []string{"Oxford", "Edinburgh", "Birmingham", "Manchester", "Bordeaux",
		"Leeds", "Bristol", "Cambridge", "York", "Bath"}
	bizKinds = []struct {
		class string
		noun  string
	}{
		{"place/food/restaurant", "Restaurant"},
		{"place/food/cafe", "Cafe"},
		{"place/food/bar", "Bar"},
		{"place/entertainment/cinema", "Cinema"},
		{"place/entertainment/museum", "Museum"},
		{"place/work/office", "Office"},
		{"place/retail/supermarket", "Supermarket"},
		{"place/retail/bookshop", "Bookshop"},
		{"place/health/gym", "Gym"},
		{"place/health/pharmacy", "Pharmacy"},
		{"place/lodging/hotel", "Hotel"},
	}
	bizNameParts = []string{"Golden", "Royal", "Old Town", "Corner", "Riverside",
		"Grand", "Little", "Central", "Garden", "Station"}
)

// NewWorld builds a deterministic ground-truth world with nProducts
// products and nBusinesses businesses.
func NewWorld(seed int64, nProducts, nBusinesses int) *World {
	rng := rand.New(rand.NewSource(seed))
	w := &World{
		rng:       rng,
		priceHist: make(map[string][]pricePoint),
		skuIndex:  make(map[string]int),
		bizIndex:  make(map[string]int),
	}
	for i := 0; i < nProducts; i++ {
		kind := productKinds[rng.Intn(len(productKinds))]
		brand := brands[rng.Intn(len(brands))]
		name := fmt.Sprintf("%s %s %s %s",
			brand, adjectives[rng.Intn(len(adjectives))], kind.noun, variants[rng.Intn(len(variants))])
		price := round2(3 + rng.Float64()*rng.Float64()*300)
		p := Product{
			SKU:      fmt.Sprintf("SKU-%05d", i),
			Name:     name,
			Brand:    brand,
			Category: kind.class,
			Price:    price,
			Rating:   round2(1 + rng.Float64()*4),
		}
		w.Products = append(w.Products, p)
		w.skuIndex[p.SKU] = i
		w.priceHist[p.SKU] = []pricePoint{{clock: 0, price: price}}
	}
	for i := 0; i < nBusinesses; i++ {
		kind := bizKinds[rng.Intn(len(bizKinds))]
		city := cities[rng.Intn(len(cities))]
		name := fmt.Sprintf("%s %s %s", bizNameParts[rng.Intn(len(bizNameParts))], city, kind.noun)
		b := Business{
			ID:       fmt.Sprintf("BIZ-%05d", i),
			Name:     name,
			Category: kind.class,
			Street:   fmt.Sprintf("%d %s", 1+rng.Intn(200), streetNames[rng.Intn(len(streetNames))]),
			City:     city,
			Postcode: fmt.Sprintf("%s%d %d%s%s", initials(city), 1+rng.Intn(20), 1+rng.Intn(9), string(rune('A'+rng.Intn(26))), string(rune('A'+rng.Intn(26)))),
			Lat:      48 + rng.Float64()*10,
			Lon:      -4 + rng.Float64()*6,
			URL:      fmt.Sprintf("https://www.%s.example/%s", slug(name), strings.ToLower(kind.noun)),
			Phone:    fmt.Sprintf("+44 %04d %06d", 1000+rng.Intn(9000), rng.Intn(1000000)),
		}
		w.Businesses = append(w.Businesses, b)
		w.bizIndex[b.ID] = i
	}
	return w
}

// Product returns the ground-truth product for a SKU, or nil.
func (w *World) Product(sku string) *Product {
	i, ok := w.skuIndex[sku]
	if !ok {
		return nil
	}
	return &w.Products[i]
}

// Business returns the ground-truth business for an ID, or nil.
func (w *World) Business(id string) *Business {
	i, ok := w.bizIndex[id]
	if !ok {
		return nil
	}
	return &w.Businesses[i]
}

// PriceAt returns the true price of a SKU at a logical clock value (the
// latest change at or before the clock). ok is false for unknown SKUs.
func (w *World) PriceAt(sku string, clock int) (float64, bool) {
	hist, ok := w.priceHist[sku]
	if !ok {
		return 0, false
	}
	price := hist[0].price
	for _, pt := range hist {
		if pt.clock > clock {
			break
		}
		price = pt.price
	}
	return price, true
}

// Evolve advances the logical clock by one step and changes the price of
// roughly churnRate of the products (Velocity). It returns the SKUs whose
// prices changed.
func (w *World) Evolve(churnRate float64) []string {
	w.Clock++
	var changed []string
	for i := range w.Products {
		if w.rng.Float64() < churnRate {
			p := &w.Products[i]
			factor := 0.85 + w.rng.Float64()*0.3 // ±15 %
			p.Price = round2(p.Price * factor)
			if p.Price < 0.5 {
				p.Price = 0.5
			}
			w.priceHist[p.SKU] = append(w.priceHist[p.SKU], pricePoint{clock: w.Clock, price: p.Price})
			changed = append(changed, p.SKU)
		}
	}
	return changed
}

// Rand exposes the world's deterministic RNG so that universes derived
// from the same world stay reproducible.
func (w *World) Rand() *rand.Rand { return w.rng }

// AsOf converts the logical clock into a synthetic wall-clock time, for
// populating "last updated" fields: clock 0 is 2016-03-15T00:00Z and each
// step is one hour.
func AsOf(clock int) time.Time {
	return time.Date(2016, 3, 15, 0, 0, 0, 0, time.UTC).Add(time.Duration(clock) * time.Hour)
}

func round2(f float64) float64 { return float64(int(f*100+0.5)) / 100 }

func slug(s string) string {
	return strings.ReplaceAll(strings.ToLower(s), " ", "-")
}

func initials(s string) string {
	if len(s) >= 2 {
		return strings.ToUpper(s[:2])
	}
	return "XX"
}
