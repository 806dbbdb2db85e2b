package arbiter

import (
	"math/rand"
	"strings"
	"testing"

	"sparcs/internal/fsm"
	"sparcs/internal/netlist"
)

const goldenVHDL2 = `-- rr_arbiter_2: 2-input round-robin resource arbiter
-- Generated by sparcs arbgen (Ouaiss & Vemuri, DATE 2000, Figure 5).
library ieee;
use ieee.std_logic_1164.all;

entity rr_arbiter_2 is
  port (
    clock : in  std_logic;
    reset : in  std_logic;
    req   : in  std_logic_vector(1 to 2);
    grant : out std_logic_vector(1 to 2)
  );
end rr_arbiter_2;

architecture rtl of rr_arbiter_2 is
  type state_type is (C1, C2, F1, F2);
  signal state, next_state : state_type;
  attribute enum_encoding : string;
  attribute enum_encoding of state_type : type is "0001 0010 0100 1000";
begin

  sync : process (clock, reset)
  begin
    if reset = '1' then
      state <= F1;
    elsif rising_edge(clock) then
      state <= next_state;
    end if;
  end process sync;

  -- Figure 5: cyclic priority scan from the current holder or
  -- priority task; at most one grant per cycle.
  comb : process (state, req)
  begin
    grant <= (others => '0');
    next_state <= state;
    case state is
      when C1 =>
        if req(1) = '1' then
          next_state <= C1;
          grant(1) <= '1';
        elsif req(1) = '0' and req(2) = '1' then
          next_state <= C2;
          grant(2) <= '1';
        else
          next_state <= F2;
        end if;
      when C2 =>
        if req(2) = '1' then
          next_state <= C2;
          grant(2) <= '1';
        elsif req(2) = '0' and req(1) = '1' then
          next_state <= C1;
          grant(1) <= '1';
        else
          next_state <= F1;
        end if;
      when F1 =>
        if req(1) = '1' then
          next_state <= C1;
          grant(1) <= '1';
        elsif req(1) = '0' and req(2) = '1' then
          next_state <= C2;
          grant(2) <= '1';
        else
          next_state <= F1;
        end if;
      when F2 =>
        if req(2) = '1' then
          next_state <= C2;
          grant(2) <= '1';
        elsif req(2) = '0' and req(1) = '1' then
          next_state <= C1;
          grant(1) <= '1';
        else
          next_state <= F2;
        end if;
    end case;
  end process comb;

end rtl;
`

func TestVHDLGoldenN2(t *testing.T) {
	got, err := VHDL(2, fsm.OneHot, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenVHDL2 {
		t.Fatalf("VHDL output drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, goldenVHDL2)
	}
}

func TestVHDLStructure(t *testing.T) {
	for n := MinN; n <= 10; n++ {
		text, err := VHDL(n, fsm.Compact, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"entity rr_arbiter_", "architecture rtl", "enum_encoding",
			"when C1 =>", "when F1 =>", "end rtl;",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("N=%d: missing %q", n, want)
			}
		}
		// One when-clause per state.
		if got := strings.Count(text, "when C"); got != n {
			t.Fatalf("N=%d: %d C-state clauses, want %d", n, got, n)
		}
		if got := strings.Count(text, "when F"); got != n {
			t.Fatalf("N=%d: %d F-state clauses, want %d", n, got, n)
		}
	}
}

func TestVHDLWithoutAttribute(t *testing.T) {
	text, err := VHDL(3, fsm.OneHot, false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "enum_encoding") {
		t.Fatal("attribute emitted despite withAttribute=false")
	}
}

func TestVHDLBadN(t *testing.T) {
	if _, err := VHDL(1, fsm.OneHot, true); err == nil {
		t.Fatal("N=1 should be rejected")
	}
}

// TestSynthesizedArbiterMatchesBehavioral is the end-to-end check the
// whole substrate chain hangs on: generate the Figure 5 FSM, synthesize it
// to gates under every encoding, simulate the gates cycle by cycle, and
// require bit-exact agreement with the behavioral round-robin arbiter.
func TestSynthesizedArbiterMatchesBehavioral(t *testing.T) {
	for n := MinN; n <= 6; n++ {
		m, err := Machine(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []fsm.Encoding{fsm.OneHot, fsm.Compact, fsm.Gray} {
			nl, _, err := fsm.Synthesize(m, enc)
			if err != nil {
				t.Fatalf("N=%d %v: %v", n, enc, err)
			}
			sim, err := netlist.NewSimulator(nl)
			if err != nil {
				t.Fatalf("N=%d %v: %v", n, enc, err)
			}
			beh := NewRoundRobin(n)
			r := rand.New(rand.NewSource(int64(n)*100 + int64(enc)))
			req := make([]bool, n)
			var steps []TraceStep
			for c := 0; c < 500; c++ {
				for i := range req {
					req[i] = r.Intn(3) != 0
				}
				want := stepBools(beh, req)
				got, err := sim.Step(req)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("N=%d %v cycle %d req=%v: gate grant[%d]=%v, behavioral %v",
							n, enc, c, req, i, got[i], want[i])
					}
				}
				steps = append(steps, TraceStep{Req: PackBools(req), Grant: PackBools(got)})
			}
			if err := CheckMutualExclusion(steps); err != nil {
				t.Fatalf("N=%d %v: %v", n, enc, err)
			}
			if err := CheckWorkConserving(steps); err != nil {
				t.Fatalf("N=%d %v: %v", n, enc, err)
			}
		}
	}
}
