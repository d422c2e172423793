// Package hotpath_escape exercises the compiler half of the hotpath
// analyzer. It is a module of its own so that `go build -gcflags=-m` can
// compile it; the analyzer tests feed canned -m output for the
// expressions named in escape_test.go instead, so the expectations below
// do not move with the compiler's version.
package hotpath_escape

type box struct{ v int }

var sink *int

// Hot is the root: every case but the cold one sits in its body or in a
// function it reaches.
//
//vprobe:hotpath
func Hot(n int) int {
	x := n // want `escape analysis: moved to heap: x in Hot, reachable from //vprobe:hotpath root Hot`
	sink = &x

	y := n //vet:alloc y is the run's one shared counter, set up once
	sink = &y

	//vet:alloc the inlined newBox allocates once per call, not per quantum
	total := add(n,
		newBox(n).v)

	if n < 0 {
		panic(negative(n))
	}

	//vet:alloc
	z := n // want `//vet:alloc requires a written reason \(suppressing: escape analysis: moved to heap: z\)`
	sink = &z
	keep(n)

	/* want `//vet:alloc waives nothing` */ //vet:alloc nothing on this line or the next escapes
	return total
}

func add(a, b int) int { return a + b }

// keep's parameter escapes: the site is in the signature, not the body.
func keep(p int) { // want `escape analysis: moved to heap: p in keep, reachable from //vprobe:hotpath root Hot`
	sink = &p
}

func newBox(v int) *box {
	return &box{v: v} //vet:alloc the one box per call the tests' Hot needs
}

type negative int

func (n negative) Error() string { return "negative" }

// Cold is never reached from a root: its escapes are nobody's business.
func Cold(n int) *int {
	c := n
	return &c
}
