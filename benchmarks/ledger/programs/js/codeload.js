function cold0(x) { return x * 0 + 0; }
function cold1(x) { return x * 1 + 1; }
function cold2(x) { return x * 2 + 2; }
function cold3(x) { return x * 3 + 3; }
function cold4(x) { return x * 4 + 4; }
function cold5(x) { return x * 5 + 5; }
function cold6(x) { return x * 6 + 6; }
function cold7(x) { return x * 7 + 0; }
function cold8(x) { return x * 8 + 1; }
function cold9(x) { return x * 9 + 2; }
function cold10(x) { return x * 10 + 3; }
function cold11(x) { return x * 11 + 4; }
function cold12(x) { return x * 12 + 5; }
function cold13(x) { return x * 13 + 6; }
function cold14(x) { return x * 14 + 0; }
function cold15(x) { return x * 15 + 1; }
function cold16(x) { return x * 16 + 2; }
function cold17(x) { return x * 17 + 3; }
function cold18(x) { return x * 18 + 4; }
function cold19(x) { return x * 19 + 5; }
function cold20(x) { return x * 20 + 6; }
function cold21(x) { return x * 21 + 0; }
function cold22(x) { return x * 22 + 1; }
function cold23(x) { return x * 23 + 2; }
function cold24(x) { return x * 24 + 3; }
function cold25(x) { return x * 25 + 4; }
function cold26(x) { return x * 26 + 5; }
function cold27(x) { return x * 27 + 6; }
function cold28(x) { return x * 28 + 0; }
function cold29(x) { return x * 29 + 1; }
function cold30(x) { return x * 30 + 2; }
function cold31(x) { return x * 31 + 3; }
function cold32(x) { return x * 32 + 4; }
function cold33(x) { return x * 33 + 5; }
function cold34(x) { return x * 34 + 6; }
function cold35(x) { return x * 35 + 0; }
function cold36(x) { return x * 36 + 1; }
function cold37(x) { return x * 37 + 2; }
function cold38(x) { return x * 38 + 3; }
function cold39(x) { return x * 39 + 4; }
function run() {
  return cold0(2) + cold1(2) + cold2(2) + cold3(2) + cold4(2) + cold5(2) + cold6(2) + cold7(2) + cold8(2) + cold9(2) + cold10(2) + cold11(2) + cold12(2) + cold13(2) + cold14(2) + cold15(2) + cold16(2) + cold17(2) + cold18(2) + cold19(2) + cold20(2) + cold21(2) + cold22(2) + cold23(2) + cold24(2) + cold25(2) + cold26(2) + cold27(2) + cold28(2) + cold29(2) + cold30(2) + cold31(2) + cold32(2) + cold33(2) + cold34(2) + cold35(2) + cold36(2) + cold37(2) + cold38(2) + cold39(2);
}
print(run());
