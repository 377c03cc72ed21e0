package algebra_test

import (
	"context"
	"testing"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/text"
)

// regs is shorthand for building a region set from (start, end) pairs.
func regs(pairs ...int) region.Set {
	rs := make([]region.Region, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		rs = append(rs, region.Of(pairs[i], pairs[i+1]))
	}
	return region.FromRegions(rs)
}

// TestLayeredDirectEdgeCases exercises the Section 3.1 layered while-loop
// program for ⊃d (and the universe-based ⊂d) on the boundary shapes of the
// region model: same-start and same-end nesting, adjacent siblings, chains
// deeper than two, identical region pairs, self-nested single names, and
// empty operands. Every case is checked three ways — layered program,
// universe-based implementation, and the naive refeval oracle — and the
// cases with a stated expectation also pin the exact result.
func TestLayeredDirectEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		define map[string]region.Set
		expr   string
		want   *region.Set // nil: only three-way agreement is checked
	}{
		{
			name:   "same-start nesting is direct",
			define: map[string]region.Set{"A": regs(0, 10), "B": regs(0, 5)},
			expr:   `A >d B`,
			want:   setPtr(regs(0, 10)),
		},
		{
			name:   "same-end nesting is direct",
			define: map[string]region.Set{"A": regs(0, 10), "B": regs(5, 10)},
			expr:   `A >d B`,
			want:   setPtr(regs(0, 10)),
		},
		{
			name: "same-start blocker intervenes",
			define: map[string]region.Set{
				"A": regs(0, 10), "M": regs(0, 7), "B": regs(0, 5),
			},
			expr: `A >d B`,
			want: setPtr(region.Empty),
		},
		{
			name: "adjacent siblings are both direct children",
			define: map[string]region.Set{
				"A": regs(0, 10), "B": regs(0, 5, 5, 10),
			},
			expr: `A >d B`,
			want: setPtr(regs(0, 10)),
		},
		{
			name: "adjacent siblings do not block each other",
			define: map[string]region.Set{
				"A": regs(0, 10), "B": regs(0, 5, 5, 10),
			},
			expr: `B <d A`,
			want: setPtr(regs(0, 5, 5, 10)),
		},
		{
			name: "depth-3 chain: only the adjacent pair is direct",
			define: map[string]region.Set{
				"A": regs(0, 20), "B": regs(2, 18), "C": regs(4, 16), "D": regs(6, 14),
			},
			expr: `A >d C`,
			want: setPtr(region.Empty),
		},
		{
			name: "depth-3 chain: adjacent pair",
			define: map[string]region.Set{
				"A": regs(0, 20), "B": regs(2, 18), "C": regs(4, 16), "D": regs(6, 14),
			},
			expr: `A >d B`,
			want: setPtr(regs(0, 20)),
		},
		{
			name: "depth-3 chain: union right operand",
			define: map[string]region.Set{
				"A": regs(0, 20), "B": regs(2, 18), "C": regs(4, 16), "D": regs(6, 14),
			},
			expr: `A >d (B + C + D)`,
			want: setPtr(regs(0, 20)),
		},
		{
			name: "depth-3 chain: direct inclusion from the middle",
			define: map[string]region.Set{
				"A": regs(0, 20), "B": regs(2, 18), "C": regs(4, 16), "D": regs(6, 14),
			},
			expr: `C >d D`,
			want: setPtr(regs(4, 16)),
		},
		{
			name: "identical region pair is not strict inclusion",
			define: map[string]region.Set{
				"A": regs(0, 10), "B": regs(0, 10),
			},
			expr: `A >d B`,
			want: setPtr(region.Empty),
		},
		{
			name: "self-nested single name",
			define: map[string]region.Set{
				"R": regs(0, 10, 1, 9, 2, 8, 3, 7),
			},
			expr: `R >d R`,
			want: setPtr(regs(0, 10, 1, 9, 2, 8)),
		},
		{
			name: "self-nested single name, included side",
			define: map[string]region.Set{
				"R": regs(0, 10, 1, 9, 2, 8, 3, 7),
			},
			expr: `R <d R`,
			want: setPtr(regs(1, 9, 2, 8, 3, 7)),
		},
		{
			name: "empty left operand",
			define: map[string]region.Set{
				"A": regs(0, 10), "E": region.Empty,
			},
			expr: `E >d A`,
			want: setPtr(region.Empty),
		},
		{
			name: "empty right operand",
			define: map[string]region.Set{
				"A": regs(0, 10), "E": region.Empty,
			},
			expr: `A >d E`,
			want: setPtr(region.Empty),
		},
		{
			name: "blocker only counts when strictly between",
			define: map[string]region.Set{
				// M equals B: not strictly between A and B.
				"A": regs(0, 10), "M": regs(2, 8), "B": regs(2, 8),
			},
			expr: `A >d B`,
			want: setPtr(regs(0, 10)),
		},
		{
			name: "sibling forests with multiple layers",
			define: map[string]region.Set{
				"A": regs(0, 10, 20, 30),
				"B": regs(1, 9, 21, 29),
				"C": regs(2, 8, 22, 28),
			},
			expr: `(A + B) >d C`,
			want: setPtr(regs(1, 9, 21, 29)),
		},
		{
			name: "layered loop crosses layers of the left operand",
			define: map[string]region.Set{
				// Two A-layers: [0,30) above [5,25); C sits directly
				// under the inner layer only.
				"A": regs(0, 30, 5, 25),
				"C": regs(10, 20),
			},
			expr: `A >d C`,
			want: setPtr(regs(5, 25)),
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			doc := text.NewDocument(tc.name, "0123456789012345678901234567890123456789")
			in := index.New(index.NewWordIndex(doc), tc.define, nil)
			e := algebra.MustParse(tc.expr)

			universe := algebra.NewEvaluator(in)
			layered := algebra.NewEvaluator(in)
			layered.UseLayeredDirect = true
			oracle := refeval.New(in)

			gotU, err := universe.Eval(e)
			if err != nil {
				t.Fatalf("universe eval: %v", err)
			}
			gotL, err := layered.Eval(e)
			if err != nil {
				t.Fatalf("layered eval: %v", err)
			}
			gotO, err := oracle.Eval(e)
			if err != nil {
				t.Fatalf("oracle eval: %v", err)
			}
			gotSU, err := universe.StreamEval(context.Background(), e, nil, nil)
			if err != nil {
				t.Fatalf("streaming universe eval: %v", err)
			}
			gotSL, err := layered.StreamEval(context.Background(), e, nil, nil)
			if err != nil {
				t.Fatalf("streaming layered eval: %v", err)
			}
			if !gotL.Equal(gotU) {
				t.Errorf("layered %v != universe %v", gotL, gotU)
			}
			if !gotU.Equal(gotO) {
				t.Errorf("universe %v != oracle %v", gotU, gotO)
			}
			if !gotSU.Equal(gotU) {
				t.Errorf("streaming universe %v != materializing %v", gotSU, gotU)
			}
			if !gotSL.Equal(gotL) {
				t.Errorf("streaming layered %v != materializing %v", gotSL, gotL)
			}
			if tc.want != nil && !gotO.Equal(*tc.want) {
				t.Errorf("%s = %v, want %v", tc.expr, gotO, *tc.want)
			}
		})
	}
}

func setPtr(s region.Set) *region.Set { return &s }
