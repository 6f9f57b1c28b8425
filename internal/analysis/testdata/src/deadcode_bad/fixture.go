// Package deadcode_bad holds the shapes the deadcode analyzer must report (a
// function nothing calls, one only this package's tests call, an exported one
// nothing calls) and the ones it must not: a method reached only through an
// interface, a function used only as a value, a generic function a caller
// instantiates, a //pressio:api declaration, and a name another package's
// tests select.
package deadcode_bad

func uncalled() int { return 1 }

func testOnly() int { return 2 }

func Exported() int { return 3 }

type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func total(shapes []shape) (n int) {
	for _, s := range shapes {
		n += s.area()
	}
	return n
}

func double(x int) int { return 2 * x }

func apply(f func(int) int, x int) int { return f(x) }

func first[T any](xs []T) T { return xs[0] }

// apiOnly has no caller in the module.
//
//pressio:api mirrors a LibPressio entry point
func apiOnly() {}

func UsedByOtherTests() int { return 4 }

func init() {
	_ = total([]shape{square{2}}) + apply(double, 3) + first([]int{1})
}

// metric is an interface the plugins below implement. Its methods are roots
// only on a type something constructs: liveMetric's stay silent though
// nothing calls them, while orphanMetric, the implementation never
// registered (it is named nowhere but its receivers), reports all four.
type metric interface {
	Prefix() string
	BeginCompress()
	EndCompress()
	Results() map[int]bool
}

var _ metric = &liveMetric{}

type liveMetric struct{}

func (m *liveMetric) Prefix() string        { return "live" }
func (m *liveMetric) BeginCompress()        {}
func (m *liveMetric) EndCompress()          {}
func (m *liveMetric) Results() map[int]bool { return nil }

type orphanMetric struct{}

func (m *orphanMetric) Prefix() string        { return "orphan" }
func (m *orphanMetric) BeginCompress()        {}
func (m *orphanMetric) EndCompress()          {}
func (m *orphanMetric) Results() map[int]bool { return nil }
